//! The V file server (paper §6): hierarchical directories as contexts.
//!
//! "The file server software maps context identifiers onto directories that
//! act as starting points for interpreting relative pathnames, similar to
//! the current working directory in Unix." Directories are contexts; files
//! are permanent objects named by CSnames; object ids play the role of
//! i-node numbers (names and descriptions are stored separately and
//! directory records are fabricated on demand, exactly as §5.6 recommends).
//! Cross-server links — the curved arrow of Figure 4 — are directory
//! entries that point at a context on another server; interpretation
//! forwards there mid-name.

use crate::common::{
    open_directory, open_reply, read, release, reply, reply_descriptor, reply_fail, serve, written,
    Answer, Call, Handle, Handled, OpClock, Server,
};
use std::collections::BTreeMap;
use std::collections::HashMap;
use vio::{serve_write, InstanceTable};
use vkernel::Ipc;
use vnaming::{
    resolve, ComponentSpace, ContextTable, CsRequest, DirectoryBuilder, Outcome, ResolvedTarget,
    Step,
};
use vproto::{
    fields, ContextId, ContextPair, CsName, DescriptorExt, DescriptorTag, InstanceId, Message,
    ObjectDescriptor, ObjectId, OpenMode, Permissions, ReplyCode, RequestCode, Scope,
};

/// Component separator used by the file server's hierarchical names.
const SEP: u8 = b'/';

/// Configuration for a [`file_server`] process.
#[derive(Debug, Clone)]
pub struct FileServerConfig {
    /// Register as [`vproto::ServiceId::FILE_SERVER`] with this scope.
    pub service_scope: Option<Scope>,
    /// Initial files: `(path, contents)`, with intermediate directories
    /// created as needed.
    pub preload: Vec<(String, Vec<u8>)>,
    /// Directory path to bind to the well-known HOME context.
    pub home: Option<String>,
    /// Directory path to bind to the well-known standard-programs context.
    pub bin: Option<String>,
    /// Charge 1984 disk latency on file reads/writes (virtual-time kernel
    /// only). Off for "already in memory buffers" experiments.
    pub simulate_disk: bool,
}

impl Default for FileServerConfig {
    fn default() -> Self {
        FileServerConfig {
            service_scope: Some(Scope::Both),
            preload: Vec::new(),
            home: None,
            bin: None,
            simulate_disk: false,
        }
    }
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum DirEntry {
    Local(ObjectId),
    /// A pointer to a context on another server (paper Figure 4).
    Remote(ContextPair),
}

#[derive(Debug)]
enum NodeKind {
    File(Vec<u8>),
    Dir {
        entries: BTreeMap<Vec<u8>, DirEntry>,
        ctx: ContextId,
    },
}

#[derive(Debug)]
struct Node {
    parent: Option<(ObjectId, Vec<u8>)>,
    kind: NodeKind,
    owner: CsName,
    modified: u64,
    perms: Permissions,
}

/// The in-memory file system state.
struct Fs {
    nodes: HashMap<ObjectId, Node>,
    next: u32,
    contexts: ContextTable<ObjectId>,
    root: ObjectId,
    clock: OpClock,
}

impl Fs {
    fn new() -> Fs {
        let mut contexts = ContextTable::new();
        let root = ObjectId(1);
        let root_ctx = contexts.alloc(root);
        contexts.bind_well_known(ContextId::DEFAULT, root_ctx);
        let mut nodes = HashMap::new();
        nodes.insert(
            root,
            Node {
                parent: None,
                kind: NodeKind::Dir {
                    entries: BTreeMap::new(),
                    ctx: root_ctx,
                },
                owner: CsName::from("system"),
                modified: 0,
                perms: Permissions::default(),
            },
        );
        Fs {
            nodes,
            next: 1,
            contexts,
            root,
            clock: OpClock::default(),
        }
    }

    fn alloc_id(&mut self) -> ObjectId {
        self.next += 1;
        ObjectId(self.next)
    }

    fn dir_node_of_ctx(&self, ctx: ContextId) -> Option<ObjectId> {
        self.contexts.get(ctx).copied()
    }

    fn dir_entries(&self, id: ObjectId) -> Option<&BTreeMap<Vec<u8>, DirEntry>> {
        match &self.nodes.get(&id)?.kind {
            NodeKind::Dir { entries, .. } => Some(entries),
            NodeKind::File(_) => None,
        }
    }

    fn file(&self, id: ObjectId) -> Option<&[u8]> {
        match &self.nodes.get(&id)?.kind {
            NodeKind::File(data) => Some(data),
            NodeKind::Dir { .. } => None,
        }
    }

    fn ctx_of_dir(&self, id: ObjectId) -> Option<ContextId> {
        match &self.nodes.get(&id)?.kind {
            NodeKind::Dir { ctx, .. } => Some(*ctx),
            NodeKind::File(_) => None,
        }
    }

    fn mkdir_in(
        &mut self,
        parent: ObjectId,
        name: &[u8],
        owner: &CsName,
    ) -> Result<ObjectId, ReplyCode> {
        if name.is_empty() || name.contains(&SEP) {
            return Err(ReplyCode::IllegalName);
        }
        let id = self.alloc_id();
        let ctx = self.contexts.alloc(id);
        let t = self.clock.tick();
        match &mut self.nodes.get_mut(&parent).ok_or(ReplyCode::NotFound)?.kind {
            NodeKind::Dir { entries, .. } => {
                if entries.contains_key(name) {
                    return Err(ReplyCode::NameInUse);
                }
                entries.insert(name.to_vec(), DirEntry::Local(id));
            }
            NodeKind::File(_) => return Err(ReplyCode::NotAContext),
        }
        self.nodes.insert(
            id,
            Node {
                parent: Some((parent, name.to_vec())),
                kind: NodeKind::Dir {
                    entries: BTreeMap::new(),
                    ctx,
                },
                owner: owner.clone(),
                modified: t,
                perms: Permissions::default(),
            },
        );
        Ok(id)
    }

    fn create_file_in(
        &mut self,
        parent: ObjectId,
        name: &[u8],
        data: Vec<u8>,
        owner: &CsName,
    ) -> Result<ObjectId, ReplyCode> {
        if name.is_empty() || name.contains(&SEP) {
            return Err(ReplyCode::IllegalName);
        }
        let id = self.alloc_id();
        let t = self.clock.tick();
        match &mut self.nodes.get_mut(&parent).ok_or(ReplyCode::NotFound)?.kind {
            NodeKind::Dir { entries, .. } => {
                if entries.contains_key(name) {
                    return Err(ReplyCode::NameInUse);
                }
                entries.insert(name.to_vec(), DirEntry::Local(id));
            }
            NodeKind::File(_) => return Err(ReplyCode::NotAContext),
        }
        self.nodes.insert(
            id,
            Node {
                parent: Some((parent, name.to_vec())),
                kind: NodeKind::File(data),
                owner: owner.clone(),
                modified: t,
                perms: Permissions::default(),
            },
        );
        Ok(id)
    }

    /// Creates all directories along `path` and returns the last one.
    #[expect(
        clippy::panic,
        clippy::expect_used,
        reason = "startup preload, before serving"
    )]
    fn mkdir_path(&mut self, path: &str) -> ObjectId {
        let mut cur = self.root;
        for comp in path.split('/').filter(|c| !c.is_empty()) {
            let existing = self
                .dir_entries(cur)
                .and_then(|e| e.get(comp.as_bytes()).cloned());
            cur = match existing {
                Some(DirEntry::Local(id)) => id,
                Some(DirEntry::Remote(_)) => panic!("preload path crosses a remote link"),
                None => self
                    .mkdir_in(cur, comp.as_bytes(), &CsName::from("system"))
                    .expect("preload mkdir"),
            };
        }
        cur
    }

    #[expect(clippy::expect_used, reason = "startup preload, before serving")]
    fn preload_file(&mut self, path: &str, data: Vec<u8>) {
        let (dir, leaf) = match path.rfind('/') {
            Some(i) => (self.mkdir_path(&path[..i]), &path[i + 1..]),
            None => (self.root, path),
        };
        self.create_file_in(dir, leaf.as_bytes(), data, &CsName::from("system"))
            .expect("preload file");
    }

    /// Reverse name mapping: absolute path of a node (paper §6 notes this
    /// inverse is hard in general; within one server the parent chain makes
    /// it exact).
    fn path_of(&self, id: ObjectId) -> Vec<u8> {
        let mut parts: Vec<Vec<u8>> = Vec::new();
        let mut cur = id;
        while let Some(node) = self.nodes.get(&cur) {
            match &node.parent {
                Some((parent, name)) => {
                    parts.push(name.clone());
                    cur = *parent;
                }
                None => break,
            }
        }
        let mut out = Vec::new();
        for part in parts.iter().rev() {
            out.push(SEP);
            out.extend_from_slice(part);
        }
        if out.is_empty() {
            out.push(SEP);
        }
        out
    }

    fn descriptor_of(&self, id: ObjectId, name_in_ctx: &[u8]) -> Option<ObjectDescriptor> {
        let node = self.nodes.get(&id)?;
        let d = match &node.kind {
            NodeKind::File(data) => {
                ObjectDescriptor::new(DescriptorTag::File, CsName::from(name_in_ctx))
                    .with_size(data.len() as u64)
            }
            NodeKind::Dir { entries, ctx } => {
                ObjectDescriptor::new(DescriptorTag::Directory, CsName::from(name_in_ctx))
                    .with_size(entries.len() as u64)
                    .with_ext(DescriptorExt::Directory {
                        context: *ctx,
                        entries: entries.len() as u32,
                    })
            }
        };
        Some(
            d.with_object_id(id)
                .with_owner(node.owner.clone())
                .with_modified(node.modified)
                .with_permissions(node.perms),
        )
    }

    /// Fabricates a context directory for `ctx` on demand (paper §5.6).
    fn fabricate_directory(&self, ctx: ContextId, pattern: Option<&[u8]>) -> Option<Vec<u8>> {
        let dir = self.dir_node_of_ctx(ctx)?;
        let entries = self.dir_entries(dir)?;
        let mut b = match pattern {
            Some(p) if !p.is_empty() => DirectoryBuilder::with_pattern(p.to_vec()),
            _ => DirectoryBuilder::new(),
        };
        for (name, entry) in entries {
            match entry {
                DirEntry::Local(id) => {
                    if let Some(d) = self.descriptor_of(*id, name) {
                        b.push(&d);
                    }
                }
                DirEntry::Remote(pair) => {
                    let d = ObjectDescriptor::new(
                        DescriptorTag::ContextPrefix,
                        CsName::from(name.clone()),
                    )
                    .with_ext(DescriptorExt::ContextPrefix {
                        target: *pair,
                        logical_service: 0,
                    });
                    b.push(&d);
                }
            }
        }
        Some(b.finish())
    }

    fn apply_modify(&mut self, id: ObjectId, d: &ObjectDescriptor) -> ReplyCode {
        let t = self.clock.tick();
        match self.nodes.get_mut(&id) {
            Some(node) => {
                // Per §5.5: overwrite what makes sense, ignore the rest.
                node.perms = d.permissions;
                if !d.owner.is_empty() {
                    node.owner = d.owner.clone();
                }
                node.modified = t;
                ReplyCode::Ok
            }
            None => ReplyCode::NotFound,
        }
    }

    fn remove(&mut self, parent_ctx: ContextId, leaf: &[u8]) -> ReplyCode {
        let Some(dir_id) = self.dir_node_of_ctx(parent_ctx) else {
            return ReplyCode::InvalidContext;
        };
        let entry = match self.dir_entries(dir_id).and_then(|e| e.get(leaf)).cloned() {
            Some(e) => e,
            None => return ReplyCode::NotFound,
        };
        if let DirEntry::Local(id) = entry {
            if let Some(entries) = self.dir_entries(id) {
                if !entries.is_empty() {
                    return ReplyCode::NotEmpty;
                }
            }
            if let Some(node) = self.nodes.remove(&id) {
                if let NodeKind::Dir { ctx, .. } = node.kind {
                    self.contexts.remove(ctx);
                }
            }
        }
        if let Some(node) = self.nodes.get_mut(&dir_id) {
            if let NodeKind::Dir { entries, .. } = &mut node.kind {
                entries.remove(leaf);
            }
        }
        ReplyCode::Ok
    }
}

impl ComponentSpace for Fs {
    type Object = ObjectId;

    fn step(&self, ctx: ContextId, component: &[u8]) -> Step<ObjectId> {
        let Some(dir) = self.dir_node_of_ctx(ctx) else {
            return Step::NotFound;
        };
        match self.dir_entries(dir).and_then(|e| e.get(component)) {
            Some(DirEntry::Local(id)) => match self.nodes.get(id).map(|n| &n.kind) {
                Some(NodeKind::Dir { ctx, .. }) => Step::Context(*ctx),
                Some(NodeKind::File(_)) => Step::Object(*id),
                None => Step::NotFound,
            },
            Some(DirEntry::Remote(pair)) => Step::Remote(*pair),
            None => Step::NotFound,
        }
    }

    fn valid_context(&self, ctx: ContextId) -> bool {
        self.contexts.contains(ctx)
    }
}

/// Result of resolving a name for create-like operations.
enum CreateTarget {
    Exists(ResolvedTarget<ObjectId>, ContextId),
    /// Parent context resolved locally; the final component is absent.
    Creatable {
        parent_ctx: ContextId,
        leaf: Vec<u8>,
    },
    Forward(Answer),
    Fail(ReplyCode),
}

fn resolve_for_create(fs: &Fs, req: &CsRequest) -> CreateTarget {
    match resolve(fs, &req.name, req.index, req.context, SEP) {
        Outcome::Done { target, parent, .. } => CreateTarget::Exists(target, parent),
        Outcome::Forward { target, index } => {
            CreateTarget::Forward(Answer::Forward { to: target, index })
        }
        Outcome::Fail(fail) if fail.code == ReplyCode::NotFound => {
            // Is the missing component the last one?
            let rest = &req.name[fail.index..];
            let leaf_end = rest.iter().position(|&b| b == SEP).unwrap_or(rest.len());
            let after = &rest[leaf_end..];
            if !after.iter().all(|&b| b == SEP) {
                return CreateTarget::Fail(ReplyCode::NotFound);
            }
            let leaf = rest[..leaf_end].to_vec();
            if leaf.is_empty() {
                return CreateTarget::Fail(ReplyCode::IllegalName);
            }
            // Resolve the parent portion (everything before the leaf).
            match resolve(fs, &req.name[..fail.index], req.index, req.context, SEP) {
                Outcome::Done {
                    target: ResolvedTarget::Context(parent_ctx),
                    ..
                } => CreateTarget::Creatable { parent_ctx, leaf },
                Outcome::Done { .. } => CreateTarget::Fail(ReplyCode::NotAContext),
                Outcome::Forward { target, index } => {
                    CreateTarget::Forward(Answer::Forward { to: target, index })
                }
                Outcome::Fail(f) => CreateTarget::Fail(f.code),
            }
        }
        Outcome::Fail(fail) => CreateTarget::Fail(fail.code),
    }
}

struct FileServer {
    fs: Fs,
    instances: InstanceTable<Handle<ObjectId>>,
    simulate_disk: bool,
}

/// Runs a V file server until the domain shuts down.
///
/// Handles the full name-handling protocol (paper §5): CSname requests
/// (open, query, modify, remove, rename, create, add/delete context name
/// for cross-server links), the I/O protocol on instances, context
/// directories, and the inverse mapping operations.
pub fn file_server(ctx: &dyn Ipc, config: FileServerConfig) {
    let mut fs = Fs::new();
    for (path, data) in &config.preload {
        fs.preload_file(path, data.clone());
    }
    if let Some(home) = &config.home {
        let dir = fs.mkdir_path(home);
        #[expect(clippy::expect_used, reason = "startup config, before serving")]
        let home_ctx = fs.ctx_of_dir(dir).expect("home is a directory");
        fs.contexts.bind_well_known(ContextId::HOME, home_ctx);
    }
    if let Some(bin) = &config.bin {
        let dir = fs.mkdir_path(bin);
        #[expect(clippy::expect_used, reason = "startup config, before serving")]
        let bin_ctx = fs.ctx_of_dir(dir).expect("bin is a directory");
        fs.contexts
            .bind_well_known(ContextId::STANDARD_PROGRAMS, bin_ctx);
    }
    if let Some(scope) = config.service_scope {
        ctx.set_pid(vproto::ServiceId::FILE_SERVER, scope);
    }
    serve(
        ctx,
        &mut FileServer {
            fs,
            instances: InstanceTable::new(),
            simulate_disk: config.simulate_disk,
        },
    );
}

impl Server for FileServer {
    fn name_op(&mut self, call: &mut Call, req: CsRequest) -> Handled {
        let op = call.msg.request_code();
        // Create-like operations resolve with missing-leaf tolerance.
        let create_like = matches!(
            op,
            Some(RequestCode::CreateObject) | Some(RequestCode::AddContextName)
        ) || (op == Some(RequestCode::CreateInstance)
            && call.msg.mode() == Some(OpenMode::Create));

        if create_like {
            return match resolve_for_create(&self.fs, &req) {
                CreateTarget::Forward(answer) => Ok(answer),
                CreateTarget::Fail(code) => Err(code),
                CreateTarget::Exists(target, parent) => self.resolved(call, req, target, parent),
                CreateTarget::Creatable { parent_ctx, leaf } => {
                    self.create(call, req, parent_ctx, leaf)
                }
            };
        }
        match resolve(&self.fs, &req.name, req.index, req.context, SEP) {
            Outcome::Forward { target, index } => Ok(Answer::Forward { to: target, index }),
            Outcome::Fail(fail) => reply_fail(fail),
            Outcome::Done { target, parent, .. } => self.resolved(call, req, target, parent),
        }
    }

    fn op(&mut self, call: &mut Call) -> Handled {
        let id = call.instance();
        match call.msg.request_code() {
            Some(RequestCode::ReadInstance) => {
                let answer = read(call, &self.instances, |node| self.fs.file(*node))?;
                let is_file = matches!(
                    self.instances.get(id).map(|i| &i.state),
                    Some(Handle::Object(_))
                );
                if is_file && self.simulate_disk {
                    if let (Some(net), Answer::Data(_, window)) = (call.ctx.net(), &answer) {
                        call.ctx.sleep(net.disk_cost(window.len()));
                    }
                }
                Ok(answer)
            }
            Some(RequestCode::WriteInstance) => {
                let offset = u64::from(call.msg.word32(fields::W_IO_OFFSET_LO));
                let data = call.data()?;
                self.write(id, offset, &data)?;
                if self.simulate_disk {
                    if let Some(net) = call.ctx.net() {
                        call.ctx.sleep(net.disk_cost(data.len()));
                    }
                }
                written(data.len())
            }
            Some(RequestCode::ReleaseInstance) => release(call, &mut self.instances),
            Some(RequestCode::QueryInstance) => {
                match &self
                    .instances
                    .get(id)
                    .ok_or(ReplyCode::InvalidInstance)?
                    .state
                {
                    Handle::Object(node) => {
                        let path = self.fs.path_of(*node);
                        let d = self.fs.descriptor_of(*node, &path);
                        reply_descriptor(&d.ok_or(ReplyCode::InvalidInstance)?)
                    }
                    Handle::Directory { image, ctx } => reply_descriptor(
                        &ObjectDescriptor::new(DescriptorTag::Directory, CsName::from("."))
                            .with_size(image.len() as u64)
                            .with_ext(DescriptorExt::Directory {
                                context: *ctx,
                                entries: 0,
                            }),
                    ),
                }
            }
            Some(RequestCode::GetContextName) => {
                // Inverse mapping: context id → CSname (paper §5.7, §6).
                let ctx_id = ContextId::new(call.msg.word32(fields::W_INVERT_ID_LO));
                let dir = self
                    .fs
                    .dir_node_of_ctx(ctx_id)
                    .ok_or(ReplyCode::InvalidContext)?;
                Ok(Answer::Data(Message::ok(), self.fs.path_of(dir)))
            }
            Some(RequestCode::GetInstanceName) => {
                // Instance ids are 16-bit: a wider id names no instance; it
                // must not wrap onto one.
                let id = u16::try_from(call.msg.word32(fields::W_INVERT_ID_LO))
                    .map_err(|_| ReplyCode::InvalidInstance)?;
                match self.instances.get(InstanceId(id)).map(|i| &i.state) {
                    Some(Handle::Object(node)) => {
                        Ok(Answer::Data(Message::ok(), self.fs.path_of(*node)))
                    }
                    _ => Err(ReplyCode::InvalidInstance),
                }
            }
            Some(RequestCode::SetInstanceOwner) => {
                // The new owner CSname travels as the payload; the instance
                // names the object whose ownership changes (paper §5.5's
                // modify-descriptor path, scoped to one field).
                let owner = call.data()?;
                if owner.is_empty() {
                    return Err(ReplyCode::BadArgs);
                }
                let Handle::Object(node_id) = &self.instances.check(id, false)?.state else {
                    // A directory snapshot instance has no single object
                    // to re-own.
                    return Err(ReplyCode::BadMode);
                };
                let t = self.fs.clock.tick();
                let node = self
                    .fs
                    .nodes
                    .get_mut(node_id)
                    .ok_or(ReplyCode::InvalidInstance)?;
                node.owner = CsName::from_bytes(owner.to_vec());
                node.modified = t;
                reply(ReplyCode::Ok)
            }
            Some(RequestCode::Echo) => Ok(Answer::Reply(call.msg)),
            _ => Err(ReplyCode::UnknownRequest),
        }
    }
}

impl FileServer {
    /// `WriteInstance` of `data` at `offset`.
    fn write(&mut self, id: InstanceId, offset: u64, data: &[u8]) -> Result<(), ReplyCode> {
        // Directory instances accept descriptor writes in Directory mode
        // (paper §5.6); file writes need a writable mode.
        let inst = self.instances.check(id, false)?;
        match &inst.state {
            Handle::Object(node_id) => {
                if !inst.mode.writes() {
                    return Err(ReplyCode::BadMode);
                }
                let node = self
                    .fs
                    .nodes
                    .get_mut(node_id)
                    .ok_or(ReplyCode::InvalidInstance)?;
                let NodeKind::File(content) = &mut node.kind else {
                    return Err(ReplyCode::BadMode);
                };
                serve_write(content, offset, data)?;
                node.modified = self.fs.clock.tick();
                Ok(())
            }
            Handle::Directory { ctx, .. } => {
                // Paper §5.6: writing a description record has the
                // semantics of the modification operation.
                let d = ObjectDescriptor::decode_one(data).map_err(|_| ReplyCode::BadArgs)?;
                let dir_id = self
                    .fs
                    .dir_node_of_ctx(*ctx)
                    .ok_or(ReplyCode::InvalidContext)?;
                let entry = self
                    .fs
                    .dir_entries(dir_id)
                    .and_then(|e| e.get(d.name.as_bytes()).cloned())
                    .ok_or(ReplyCode::NotFound)?;
                let DirEntry::Local(target) = entry else {
                    return Err(ReplyCode::BadMode);
                };
                match self.fs.apply_modify(target, &d) {
                    ReplyCode::Ok => Ok(()),
                    code => Err(code),
                }
            }
        }
    }

    /// Handles create-like operations whose final component does not exist
    /// yet.
    fn create(
        &mut self,
        call: &mut Call,
        req: CsRequest,
        parent_ctx: ContextId,
        leaf: Vec<u8>,
    ) -> Handled {
        let fs = &mut self.fs;
        let parent_id = fs
            .dir_node_of_ctx(parent_ctx)
            .ok_or(ReplyCode::InvalidContext)?;
        let owner = CsName::from("user");
        match call.msg.request_code() {
            Some(RequestCode::CreateInstance) => {
                let id = fs.create_file_in(parent_id, &leaf, Vec::new(), &owner)?;
                let inst = self
                    .instances
                    .open(call.from, OpenMode::Create, Handle::Object(id));
                open_reply(call, inst, 0)
            }
            Some(RequestCode::CreateObject) => {
                // Descriptor template (if any) selects file vs directory; only
                // the tag word matters, so peek it rather than requiring a
                // fully well-formed record.
                let tag = vproto::WireReader::new(&req.extra)
                    .u16()
                    .ok()
                    .and_then(DescriptorTag::from_u16)
                    .unwrap_or(DescriptorTag::File);
                match tag {
                    DescriptorTag::Directory => fs.mkdir_in(parent_id, &leaf, &owner)?,
                    _ => fs.create_file_in(parent_id, &leaf, Vec::new(), &owner)?,
                };
                reply(ReplyCode::Ok)
            }
            Some(RequestCode::AddContextName) => {
                // A context pointer. If the target is one of *our own*
                // contexts, this is a local alias (a second name for the same
                // directory — the many-to-one situation that makes reverse
                // mapping ambiguous, paper §6); otherwise it is a cross-server
                // link, the curved arrow of Figure 4.
                let target = ContextPair::new(
                    call.msg.pid_at(fields::W_TARGET_PID_LO),
                    ContextId::new(call.msg.word32(fields::W_TARGET_CTX_LO)),
                );
                let entry = if target.server == call.ctx.my_pid() {
                    let dir_id = fs
                        .dir_node_of_ctx(target.context)
                        .ok_or(ReplyCode::InvalidContext)?;
                    DirEntry::Local(dir_id)
                } else {
                    DirEntry::Remote(target)
                };
                let t = fs.clock.tick();
                let node = fs
                    .nodes
                    .get_mut(&parent_id)
                    .ok_or(ReplyCode::InvalidContext)?;
                node.modified = t;
                let NodeKind::Dir { entries, .. } = &mut node.kind else {
                    return Err(ReplyCode::NotAContext);
                };
                entries.insert(leaf, entry);
                reply(ReplyCode::Ok)
            }
            _ => Err(ReplyCode::NotFound),
        }
    }

    /// Handles CSname operations whose name resolved locally.
    fn resolved(
        &mut self,
        call: &mut Call,
        req: CsRequest,
        target: ResolvedTarget<ObjectId>,
        parent: ContextId,
    ) -> Handled {
        let fs = &mut self.fs;
        let msg = call.msg;
        // The object a context name denotes is its directory.
        let node_of = |fs: &Fs, target| match target {
            ResolvedTarget::Object(id) => Ok(id),
            ResolvedTarget::Context(c) => fs.dir_node_of_ctx(c).ok_or(ReplyCode::InvalidContext),
        };
        match msg.request_code() {
            Some(RequestCode::CreateInstance) => {
                let mode = msg.mode().ok_or(ReplyCode::BadArgs)?;
                match (target, mode) {
                    (ResolvedTarget::Object(_), OpenMode::Directory) => Err(ReplyCode::NotAContext),
                    (ResolvedTarget::Object(id), _) => {
                        // Enforce the access-control bits a modify operation
                        // may have set (the paper's §5.5 example).
                        let perms = fs.nodes.get(&id).map(|n| n.perms).unwrap_or_default();
                        let denied = (mode.writes() && !perms.has(Permissions::WRITE))
                            || (!mode.writes() && !perms.has(Permissions::READ));
                        if denied {
                            return Err(ReplyCode::NoPermission);
                        }
                        let size = fs.file(id).map_or(0, |d| d.len() as u64);
                        let inst = self.instances.open(call.from, mode, Handle::Object(id));
                        open_reply(call, inst, size)
                    }
                    (ResolvedTarget::Context(c), OpenMode::Directory)
                    | (ResolvedTarget::Context(c), OpenMode::Read) => {
                        // Open the context directory (paper §5.6); the extra
                        // payload optionally carries a filter pattern.
                        let pattern = (!req.extra.is_empty()).then_some(&req.extra[..]);
                        let image = fs
                            .fabricate_directory(c, pattern)
                            .ok_or(ReplyCode::InvalidContext)?;
                        open_directory(call, &mut self.instances, image, c)
                    }
                    (ResolvedTarget::Context(_), _) => Err(ReplyCode::BadMode),
                }
            }
            Some(RequestCode::QueryName) => match target {
                // Paper §5.7: map a context CSname → (server-pid, context-id).
                ResolvedTarget::Context(c) => {
                    let mut m = Message::ok();
                    m.set_context_id(c);
                    m.set_pid_at(fields::W_PID_LO, call.ctx.my_pid());
                    Ok(Answer::Reply(m))
                }
                ResolvedTarget::Object(_) => Err(ReplyCode::NotAContext),
            },
            Some(RequestCode::QueryObject) => {
                let id = node_of(fs, target)?;
                let d = fs.descriptor_of(id, &leaf_name(&req));
                reply_descriptor(&d.ok_or(ReplyCode::NotFound)?)
            }
            Some(RequestCode::ModifyObject) => {
                let d = ObjectDescriptor::decode_one(&req.extra).map_err(|_| ReplyCode::BadArgs)?;
                let id = node_of(fs, target)?;
                reply(fs.apply_modify(id, &d))
            }
            // Remove an object, or a cross-server link (or any entry), by name.
            Some(RequestCode::RemoveObject) | Some(RequestCode::DeleteContextName) => {
                let leaf = leaf_name(&req);
                if leaf.is_empty() {
                    return Err(ReplyCode::IllegalName);
                }
                reply(fs.remove(parent, &leaf))
            }
            Some(RequestCode::RenameObject) => {
                let new_index = msg.word(fields::W_NAME2_INDEX) as usize;
                let new_len = msg.word(fields::W_NAME2_LEN) as usize;
                // The second name follows the first in the payload; req.extra
                // holds payload bytes past the first name.
                if new_index < req.name.len()
                    || new_index + new_len > req.name.len() + req.extra.len()
                {
                    return Err(ReplyCode::BadArgs);
                }
                let start = new_index - req.name.len();
                let new_name = &req.extra[start..start + new_len];
                reply(do_rename(fs, &req, target, parent, new_name))
            }
            // Fully resolved: the name already exists.
            Some(RequestCode::CreateObject) | Some(RequestCode::AddContextName) => {
                Err(ReplyCode::NameInUse)
            }
            // A CSname operation this server does not implement — but the
            // name resolved here, so answer honestly (paper §5.3).
            _ => Err(ReplyCode::UnknownRequest),
        }
    }
}

/// The final component of the (interpreted portion of the) request name.
fn leaf_name(req: &CsRequest) -> Vec<u8> {
    let name = &req.name[req.index.min(req.name.len())..];
    let trimmed: &[u8] = {
        let mut end = name.len();
        while end > 0 && name[end - 1] == SEP {
            end -= 1;
        }
        &name[..end]
    };
    match trimmed.iter().rposition(|&b| b == SEP) {
        Some(i) => trimmed[i + 1..].to_vec(),
        None => trimmed.to_vec(),
    }
}

fn do_rename(
    fs: &mut Fs,
    req: &CsRequest,
    target: ResolvedTarget<ObjectId>,
    parent: ContextId,
    new_name: &[u8],
) -> ReplyCode {
    let old_leaf = leaf_name(req);
    if old_leaf.is_empty() {
        return ReplyCode::IllegalName;
    }
    let id = match target {
        ResolvedTarget::Object(id) => id,
        ResolvedTarget::Context(c) => match fs.dir_node_of_ctx(c) {
            Some(d) => d,
            None => return ReplyCode::InvalidContext,
        },
    };
    // Resolve the new name's parent (must be local).
    let fake_req = CsRequest {
        context: req.context,
        index: 0,
        name: new_name.to_vec(),
        extra: Vec::new(),
    };
    let (new_parent_ctx, new_leaf) = match resolve_for_create(fs, &fake_req) {
        CreateTarget::Creatable { parent_ctx, leaf } => (parent_ctx, leaf),
        CreateTarget::Exists(..) => return ReplyCode::NameInUse,
        CreateTarget::Forward(_) => return ReplyCode::IllegalName, // cross-server rename unsupported
        CreateTarget::Fail(code) => return code,
    };
    let Some(old_dir) = fs.dir_node_of_ctx(parent) else {
        return ReplyCode::InvalidContext;
    };
    let Some(new_dir) = fs.dir_node_of_ctx(new_parent_ctx) else {
        return ReplyCode::InvalidContext;
    };
    // A directory cannot move beneath itself: it would become its own
    // ancestor, and the parent chain every reverse mapping walks would be a
    // cycle. The walk up from the new parent ends because the tree has no
    // cycle yet.
    let mut above = Some(new_dir);
    while let Some(node) = above {
        if node == id {
            return ReplyCode::IllegalName;
        }
        above = fs
            .nodes
            .get(&node)
            .and_then(|n| n.parent.as_ref().map(|(p, _)| *p));
    }
    // Detach from the old directory.
    let entry = match fs.nodes.get_mut(&old_dir) {
        Some(node) => match &mut node.kind {
            NodeKind::Dir { entries, .. } => match entries.remove(&old_leaf) {
                Some(e) => e,
                None => return ReplyCode::NotFound,
            },
            NodeKind::File(_) => return ReplyCode::NotAContext,
        },
        None => return ReplyCode::InvalidContext,
    };
    // Attach under the new directory.
    match fs.nodes.get_mut(&new_dir) {
        Some(node) => match &mut node.kind {
            NodeKind::Dir { entries, .. } => {
                entries.insert(new_leaf.clone(), entry);
            }
            NodeKind::File(_) => return ReplyCode::NotAContext,
        },
        None => return ReplyCode::InvalidContext,
    }
    let t = fs.clock.tick();
    if let Some(node) = fs.nodes.get_mut(&id) {
        node.parent = Some((new_dir, new_leaf));
        node.modified = t;
    }
    ReplyCode::Ok
}
