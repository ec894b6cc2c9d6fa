//! Model-based testing of the full naming stack: arbitrary operation
//! sequences are applied both to the real system (NameClient → prefix
//! server → file server, over the thread kernel; NameClient → prefix
//! server's table, over both kernels) and to a trivial in-memory reference
//! model; observable behaviour must match exactly.

use integration_tests::{wait_for_service, AnyDomain};
use proptest::prelude::*;
use std::collections::BTreeMap;
use vkernel::Domain;
use vproto::{ContextId, ContextPair, OpenMode, Pid, ServiceId};
use vruntime::{BatchOutcome, Binding, NameClient, Staleness};
use vservers::{file_server, prefix_server, FileServerConfig, PrefixConfig};

/// Operations over a small universe of names (so collisions happen often).
#[derive(Debug, Clone)]
enum Op {
    Write { dir: u8, file: u8, body: Vec<u8> },
    Read { dir: u8, file: u8 },
    Mkdir { dir: u8 },
    RemoveFile { dir: u8, file: u8 },
    RemoveDir { dir: u8 },
    List { dir: u8 },
    Rename { dir: u8, file: u8, new_file: u8 },
}

fn arb_op() -> impl Strategy<Value = Op> {
    let d = 0u8..3;
    let f = 0u8..4;
    prop_oneof![
        (
            d.clone(),
            f.clone(),
            proptest::collection::vec(any::<u8>(), 0..12)
        )
            .prop_map(|(dir, file, body)| Op::Write { dir, file, body }),
        (d.clone(), f.clone()).prop_map(|(dir, file)| Op::Read { dir, file }),
        d.clone().prop_map(|dir| Op::Mkdir { dir }),
        (d.clone(), f.clone()).prop_map(|(dir, file)| Op::RemoveFile { dir, file }),
        d.clone().prop_map(|dir| Op::RemoveDir { dir }),
        d.clone().prop_map(|dir| Op::List { dir }),
        (d, f.clone(), f).prop_map(|(dir, file, new_file)| Op::Rename {
            dir,
            file,
            new_file
        }),
    ]
}

/// The reference model: directories of files, nothing else.
#[derive(Default)]
struct Model {
    dirs: BTreeMap<u8, BTreeMap<u8, Vec<u8>>>,
}

/// Observable outcome of one op, comparable between system and model.
#[derive(Debug, PartialEq, Eq)]
enum Outcome {
    Ok,
    Data(Vec<u8>),
    Names(Vec<String>),
    Err, // any failure — codes are compared only for reads
}

impl Model {
    fn apply(&mut self, op: &Op) -> Outcome {
        match op {
            Op::Write { dir, file, body } => match self.dirs.get_mut(dir) {
                Some(d) => {
                    d.insert(*file, body.clone());
                    Outcome::Ok
                }
                None => Outcome::Err,
            },
            Op::Read { dir, file } => match self.dirs.get(dir).and_then(|d| d.get(file)) {
                Some(body) => Outcome::Data(body.clone()),
                None => Outcome::Err,
            },
            Op::Mkdir { dir } => {
                if self.dirs.contains_key(dir) {
                    Outcome::Err
                } else {
                    self.dirs.insert(*dir, BTreeMap::new());
                    Outcome::Ok
                }
            }
            Op::RemoveFile { dir, file } => match self.dirs.get_mut(dir).map(|d| d.remove(file)) {
                Some(Some(_)) => Outcome::Ok,
                _ => Outcome::Err,
            },
            Op::RemoveDir { dir } => match self.dirs.get(dir) {
                Some(d) if d.is_empty() => {
                    self.dirs.remove(dir);
                    Outcome::Ok
                }
                _ => Outcome::Err,
            },
            Op::List { dir } => match self.dirs.get(dir) {
                Some(d) => Outcome::Names(d.keys().map(|f| format!("f{f}")).collect()),
                None => Outcome::Err,
            },
            Op::Rename {
                dir,
                file,
                new_file,
            } => {
                let d = match self.dirs.get_mut(dir) {
                    Some(d) => d,
                    None => return Outcome::Err,
                };
                if !d.contains_key(file) || d.contains_key(new_file) || file == new_file {
                    return Outcome::Err;
                }
                let body = d.remove(file).expect("checked");
                d.insert(*new_file, body);
                Outcome::Ok
            }
        }
    }
}

fn apply_real(client: &NameClient<'_>, ipc: &dyn vkernel::Ipc, op: &Op) -> Outcome {
    let dir_name = |d: u8| format!("[w]d{d}");
    match op {
        Op::Write { dir, file, body } => {
            // Overwrite semantics: open-create then truncating write needs
            // remove-first when the file exists; emulate by remove+create.
            let name = format!("{}/f{file}", dir_name(*dir));
            if client.query(&dir_name(*dir)).is_err() {
                return Outcome::Err;
            }
            let _ = client.remove(&name);
            match client.open(&name, OpenMode::Create) {
                Ok(mut h) => {
                    h.write_next(ipc, body).unwrap();
                    h.close(ipc).unwrap();
                    Outcome::Ok
                }
                Err(_) => Outcome::Err,
            }
        }
        Op::Read { dir, file } => match client.read_file(&format!("{}/f{file}", dir_name(*dir))) {
            Ok(data) => Outcome::Data(data),
            Err(_) => Outcome::Err,
        },
        Op::Mkdir { dir } => match client.make_directory(&dir_name(*dir)) {
            Ok(()) => Outcome::Ok,
            Err(_) => Outcome::Err,
        },
        Op::RemoveFile { dir, file } => {
            match client.remove(&format!("{}/f{file}", dir_name(*dir))) {
                Ok(()) => Outcome::Ok,
                Err(_) => Outcome::Err,
            }
        }
        Op::RemoveDir { dir } => match client.remove(&dir_name(*dir)) {
            Ok(()) => Outcome::Ok,
            Err(_) => Outcome::Err,
        },
        Op::List { dir } => match client.list_directory(&dir_name(*dir), None) {
            Ok(records) => {
                Outcome::Names(records.iter().map(|r| r.name.to_string_lossy()).collect())
            }
            Err(_) => Outcome::Err,
        },
        Op::Rename {
            dir,
            file,
            new_file,
        } => {
            if file == new_file {
                return Outcome::Err;
            }
            let old = format!("{}/f{file}", dir_name(*dir));
            // The new name is interpreted in the request's context (the
            // prefix target, i.e. the server root), so spell out the
            // directory.
            match client.rename(&old, &format!("d{dir}/f{new_file}")) {
                Ok(()) => Outcome::Ok,
                Err(_) => Outcome::Err,
            }
        }
    }
}

/// Runs `ops` against both the real stack and the reference model,
/// returning a description of the first divergence (if any).
fn find_divergence(ops: Vec<Op>) -> Option<String> {
    let domain = Domain::new();
    let host = domain.add_host();
    let fs = domain.spawn(host, "fs", |ctx| {
        file_server(ctx, FileServerConfig::default())
    });
    domain.spawn(host, "prefix", |ctx| {
        prefix_server(ctx, PrefixConfig::default())
    });
    wait_for_service(&domain, host, ServiceId::CONTEXT_PREFIX);
    wait_for_service(&domain, host, ServiceId::FILE_SERVER);

    domain.client(host, move |ctx| {
        let client = NameClient::new(ctx, ContextPair::new(fs, ContextId::DEFAULT));
        client
            .add_prefix("w", ContextPair::new(fs, ContextId::DEFAULT))
            .unwrap();
        let mut model = Model::default();
        for (i, op) in ops.iter().enumerate() {
            let expected = model.apply(op);
            let actual = apply_real(&client, ctx, op);
            if expected != actual {
                return Some(format!(
                    "step {i} {op:?}: model {expected:?} vs real {actual:?}"
                ));
            }
        }
        None
    })
}

/// Regression: the shrunk case recorded in
/// `tests/tests/model_based.proptest-regressions` — rename an empty file
/// onto a fresh name, then remove it under the new name.
#[test]
fn regression_rename_empty_file_then_remove() {
    let ops = vec![
        Op::Mkdir { dir: 1 },
        Op::Write {
            dir: 1,
            file: 0,
            body: vec![],
        },
        Op::Rename {
            dir: 1,
            file: 0,
            new_file: 1,
        },
        Op::RemoveFile { dir: 1, file: 1 },
    ];
    if let Some(d) = find_divergence(ops) {
        panic!("{d}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The real stack and the reference model agree on every observable
    /// outcome of every operation sequence.
    #[test]
    fn file_server_matches_reference_model(ops in proptest::collection::vec(arb_op(), 0..40)) {
        let divergence = find_divergence(ops);
        prop_assert!(divergence.is_none(), "{}", divergence.unwrap());
    }
}

/// Operations on the prefix table over eight names, `p0`…`p7`.
#[derive(Debug, Clone)]
enum TableOp {
    Add { name: u8, target: u8 },
    Delete { name: u8 },
    Batch { names: Vec<u8> },
}

fn arb_table_op() -> impl Strategy<Value = TableOp> {
    let n = 0u8..8;
    prop_oneof![
        (n.clone(), any::<u8>()).prop_map(|(name, target)| TableOp::Add { name, target }),
        n.clone().prop_map(|name| TableOp::Delete { name }),
        proptest::collection::vec(n, 0..8).prop_map(|names| TableOp::Batch { names }),
    ]
}

/// The direct binding `Add { target }` defines. The prefix server forwards
/// to no one here, so the pair need not name a live process.
fn table_target(target: u8) -> ContextPair {
    ContextPair::new(
        Pid::from_raw(0x100 + u32::from(target)),
        ContextId::new(u32::from(target)),
    )
}

/// Observable outcome of one table op.
#[derive(Debug, PartialEq, Eq)]
enum TableOutcome {
    Ok,
    Err,
    Answers(Vec<BatchOutcome>),
}

fn apply_table_model(model: &mut BTreeMap<u8, ContextPair>, op: &TableOp) -> TableOutcome {
    match op {
        TableOp::Add { name, target } => {
            model.insert(*name, table_target(*target));
            TableOutcome::Ok
        }
        TableOp::Delete { name } => match model.remove(name) {
            Some(_) => TableOutcome::Ok,
            None => TableOutcome::Err,
        },
        TableOp::Batch { names } => TableOutcome::Answers(
            names
                .iter()
                .map(|name| match model.get(name) {
                    Some(&target) => BatchOutcome::Bound(Binding {
                        target,
                        staleness: Staleness::Fresh,
                    }),
                    None => BatchOutcome::NotFound,
                })
                .collect(),
        ),
    }
}

fn apply_table_real(client: &NameClient<'_>, op: &TableOp) -> TableOutcome {
    let ok = |done: bool| {
        if done {
            TableOutcome::Ok
        } else {
            TableOutcome::Err
        }
    };
    match op {
        TableOp::Add { name, target } => ok(client
            .add_prefix(&format!("p{name}"), table_target(*target))
            .is_ok()),
        TableOp::Delete { name } => ok(client.delete_prefix(&format!("p{name}")).is_ok()),
        TableOp::Batch { names } => {
            let names: Vec<String> = names.iter().map(|name| format!("p{name}")).collect();
            let refs: Vec<&str> = names.iter().map(String::as_str).collect();
            match client.resolve_batch(&refs) {
                Ok(answers) => TableOutcome::Answers(answers),
                Err(_) => TableOutcome::Err,
            }
        }
    }
}

/// Runs `ops` through a prefix server on `domain`'s kernel and through the
/// model, returning a description of the first divergence (if any).
fn find_table_divergence(domain: &AnyDomain, ops: Vec<TableOp>) -> Option<String> {
    let host = domain.add_host();
    domain.spawn(host, "prefix", |ctx| {
        prefix_server(ctx, PrefixConfig::default())
    });
    domain.settle(host, Some(ServiceId::CONTEXT_PREFIX));
    let label = domain.label();
    domain.client(host, move |ctx| {
        let client = NameClient::new(ctx, ContextPair::new(Pid::NULL, ContextId::DEFAULT));
        let mut model = BTreeMap::new();
        for (i, op) in ops.iter().enumerate() {
            let expected = apply_table_model(&mut model, op);
            let actual = apply_table_real(&client, op);
            if expected != actual {
                return Some(format!(
                    "{label}, step {i} {op:?}: model {expected:?} vs real {actual:?}"
                ));
            }
        }
        None
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Read-your-writes through the prefix server on both kernels: every
    /// batch resolve answers as the model stands after every add and
    /// delete before it, and a delete succeeds exactly when the name is
    /// bound.
    #[test]
    fn prefix_table_matches_reference_model(ops in proptest::collection::vec(arb_table_op(), 0..40)) {
        for domain in AnyDomain::both() {
            let divergence = find_table_divergence(&domain, ops.clone());
            prop_assert!(divergence.is_none(), "{}", divergence.unwrap());
        }
    }
}
