//! Regressions for server and client defects: a rename that hung the file
//! server, instance ids that collided within one server, an unbounded file
//! write, a byte count on refused writes, an instance id truncated to 16
//! bits, and over-long names sent as some other name.

use bytes::Bytes;
use std::sync::mpsc;
use std::time::Duration;
use vkernel::{Domain, Ipc};
use vproto::{
    fields, ContextId, ContextPair, LogicalHost, Message, ObjectDescriptor, OpenMode, Pid,
    ReplyCode, RequestCode, Scope, ServiceId,
};
use vruntime::NameClient;
use vservers::{
    file_server, internet_server, mail_server, printer_server, terminal_server, FileServerConfig,
    InternetConfig, MailConfig, PrinterConfig, TerminalConfig,
};

/// Long enough for any answer on a loaded machine; a server that hangs
/// never answers at all.
const WATCHDOG: Duration = Duration::from_secs(20);

/// Spawns one server and waits until it has registered `service`.
fn boot(
    service: ServiceId,
    server: impl FnOnce(&dyn Ipc) + Send + 'static,
) -> (Domain, LogicalHost, Pid) {
    let domain = Domain::new();
    let host = domain.add_host();
    let pid = domain.spawn(host, "server", server);
    while domain
        .registry()
        .lookup(service, Scope::Both, host)
        .is_none()
    {
        std::thread::yield_now();
    }
    (domain, host, pid)
}

/// Runs `client` as a client process, failing the test if it does not
/// finish within the [`WATCHDOG`]. On a timeout the domain is leaked: its
/// hung server could not be joined.
fn within_watchdog<T: Send + 'static>(
    domain: Domain,
    host: LogicalHost,
    client: impl FnOnce(&dyn Ipc) -> T + Send + 'static,
) -> T {
    let (tx, rx) = mpsc::channel();
    let d = domain.clone();
    std::thread::spawn(move || {
        let _ = tx.send(d.client(host, client));
    });
    match rx.recv_timeout(WATCHDOG) {
        Ok(out) => out,
        Err(mpsc::RecvTimeoutError::Timeout) => {
            std::mem::forget(domain);
            panic!("no answer within {WATCHDOG:?}: the server hangs");
        }
        Err(mpsc::RecvTimeoutError::Disconnected) => panic!("the client panicked"),
    }
}

/// The reverse mapping of `dir`'s context (paper §5.7), as the server
/// answers it.
fn context_name(ctx: &dyn Ipc, fs: Pid, dir: ContextPair) -> Vec<u8> {
    let mut msg = Message::request(RequestCode::GetContextName);
    msg.set_word32(fields::W_INVERT_ID_LO, dir.context.raw());
    let reply = ctx
        .send(fs, msg, Bytes::new(), 4096)
        .expect("GetContextName");
    assert_eq!(reply.msg.reply_code(), ReplyCode::Ok);
    reply.data.to_vec()
}

/// Makes the directories `dirs`, renames `from` to `to` — beneath itself —
/// and checks the rename is refused and `from` still reverse-maps.
fn rename_beneath_itself_is_refused(dirs: &'static [&'static str], from: &str, to: &str) {
    let (domain, host, fs) = boot(ServiceId::FILE_SERVER, |ctx| {
        file_server(ctx, FileServerConfig::default())
    });
    let (from, to) = (from.to_string(), to.to_string());
    within_watchdog(domain, host, move |ctx| {
        let client = NameClient::new(ctx, ContextPair::new(fs, ContextId::DEFAULT));
        for dir in dirs {
            client.make_directory(dir).expect("mkdir");
        }
        let moved = client.query_name(&from).expect("directory context");
        let err = client
            .rename(&from, &to)
            .expect_err("a directory cannot move beneath itself");
        assert_eq!(err.reply_code(), Some(ReplyCode::IllegalName));
        assert_eq!(
            context_name(ctx, fs, moved),
            format!("/{from}").into_bytes()
        );
        assert!(client.query_name(&to).is_err(), "nothing was attached");
    });
}

#[test]
fn renaming_a_directory_into_its_own_child_is_refused() {
    rename_beneath_itself_is_refused(&["d"], "d", "d/x");
}

#[test]
fn renaming_a_directory_into_its_own_grandchild_is_refused() {
    rename_beneath_itself_is_refused(&["a", "a/b"], "a", "a/b/x");
}

/// Opens object `name` (writing `body` into it) and the server's directory,
/// then checks the two instances never alias: distinct ids, each read
/// returns its own bytes, and releasing either leaves the other readable.
fn object_and_directory_never_alias(
    (domain, host, srv): (Domain, LogicalHost, Pid),
    name: &'static str,
    mode: OpenMode,
    body: &'static [u8],
    stored: &'static [u8],
) {
    domain.client(host, move |ctx| {
        let client = NameClient::new(ctx, ContextPair::new(srv, ContextId::DEFAULT));
        let read = |inst| vio::read_at(ctx, srv, inst, 0, 4096).expect("read");
        let entries = |bytes: Bytes| {
            let listing = ObjectDescriptor::decode_directory(&bytes).expect("a directory image");
            listing.len()
        };
        let mut object = client.open(name, mode).expect("open object");
        object.write_next(ctx, body).expect("write");
        let dir = client
            .open("", OpenMode::Directory)
            .expect("open directory");
        assert_ne!(object.instance(), dir.instance(), "one id, two instances");
        assert_eq!(&read(object.instance())[..], stored);
        assert_eq!(entries(read(dir.instance())), 1);

        vio::release(ctx, srv, dir.instance()).expect("release directory");
        assert_eq!(&read(object.instance())[..], stored);
        let dir = client
            .open("", OpenMode::Directory)
            .expect("reopen directory");
        vio::release(ctx, srv, object.instance()).expect("release object");
        assert_eq!(entries(read(dir.instance())), 1);
        let stale = vio::read_at(ctx, srv, object.instance(), 0, 4096).unwrap_err();
        assert_eq!(stale.reply_code(), Some(ReplyCode::InvalidInstance));
    });
}

#[test]
fn terminal_instances_never_alias() {
    let world = boot(ServiceId::TERMINAL_SERVER, |ctx| {
        terminal_server(ctx, TerminalConfig::default())
    });
    object_and_directory_never_alias(world, "tty0", OpenMode::Create, b"$ ", b"$ ");
}

#[test]
fn mail_instances_never_alias() {
    let world = boot(ServiceId::MAIL_SERVER, |ctx| {
        mail_server(ctx, MailConfig::new("su-score.ARPA"))
    });
    object_and_directory_never_alias(world, "mann", OpenMode::Append, b"hi", b"hi\n");
}

#[test]
fn printer_instances_never_alias() {
    let world = boot(ServiceId::PRINT_SERVER, |ctx| {
        printer_server(ctx, PrinterConfig::default())
    });
    object_and_directory_never_alias(world, "thesis", OpenMode::Create, b"%!PS", b"%!PS");
}

#[test]
fn internet_instances_never_alias() {
    let world = boot(ServiceId::INTERNET_SERVER, |ctx| {
        internet_server(ctx, InternetConfig::default())
    });
    object_and_directory_never_alias(world, "10.0.0.1:25", OpenMode::Create, b"HELO", b"HELO");
}

/// The file server's size cap.
const MAX_FILE_BYTES: u64 = vio::MAX_FILE_BYTES as u64;

#[test]
fn a_file_write_past_16_mib_is_refused_and_changes_nothing() {
    let (domain, host, fs) = boot(ServiceId::FILE_SERVER, |ctx| {
        file_server(
            ctx,
            FileServerConfig {
                preload: vec![("f".into(), b"head".to_vec())],
                ..FileServerConfig::default()
            },
        )
    });
    domain.client(host, move |ctx| {
        let client = NameClient::new(ctx, ContextPair::new(fs, ContextId::DEFAULT));
        let file = client.open("f", OpenMode::Write).expect("open");
        let write = |offset| vio::write_at(ctx, fs, file.instance(), offset, b"x");
        for offset in [MAX_FILE_BYTES, 0xFFFF_0000] {
            let err = write(offset).expect_err("past the cap");
            assert_eq!(err.reply_code(), Some(ReplyCode::NoServerResources));
            assert_eq!(client.query("f").expect("query").size, 4, "file unchanged");
        }
        assert_eq!(write(MAX_FILE_BYTES - 1).expect("ends at the cap"), 1);
        assert_eq!(client.query("f").expect("query").size, MAX_FILE_BYTES);
        let head = vio::read_at(ctx, fs, file.instance(), 0, 4).expect("read");
        assert_eq!(&head[..], b"head");
    });
}

#[test]
fn get_instance_name_refuses_an_id_wider_than_16_bits() {
    let (domain, host, fs) = boot(ServiceId::FILE_SERVER, |ctx| {
        file_server(
            ctx,
            FileServerConfig {
                preload: vec![("f".into(), b"body".to_vec())],
                ..FileServerConfig::default()
            },
        )
    });
    domain.client(host, move |ctx| {
        let client = NameClient::new(ctx, ContextPair::new(fs, ContextId::DEFAULT));
        let file = client.open("f", OpenMode::Read).expect("open");
        let instance_name = |id: u32| {
            let mut msg = Message::request(RequestCode::GetInstanceName);
            msg.set_word32(fields::W_INVERT_ID_LO, id);
            let reply = ctx.send(fs, msg, Bytes::new(), 4096).expect("an answer");
            (reply.msg.reply_code(), reply.data.to_vec())
        };
        let id = u32::from(file.instance().0);
        assert_eq!(instance_name(id), (ReplyCode::Ok, b"/f".to_vec()));
        assert_eq!(
            instance_name(id | 0x1_0000),
            (ReplyCode::InvalidInstance, Vec::new())
        );
    });
}

#[test]
fn an_overlong_name_is_refused_before_it_is_sent() {
    // Its length word once wrapped to 0, so the server answered for the
    // empty name: the context itself.
    let (domain, host, fs) = boot(ServiceId::FILE_SERVER, |ctx| {
        file_server(
            ctx,
            FileServerConfig {
                preload: vec![("f".into(), b"body".to_vec())],
                ..FileServerConfig::default()
            },
        )
    });
    domain.client(host, move |ctx| {
        let client = NameClient::new(ctx, ContextPair::new(fs, ContextId::DEFAULT));
        let long = "a".repeat(usize::from(u16::MAX) + 1);
        for err in [
            client.query(&long).expect_err("query"),
            client.open(&long, OpenMode::Read).expect_err("open"),
            client.rename("f", &long).expect_err("rename to"),
            client.rename(&long, "g").expect_err("rename from"),
        ] {
            assert_eq!(err.reply_code(), Some(ReplyCode::IllegalName));
        }
        assert_eq!(client.read_file("f").expect("read"), b"body");
    });
}

#[test]
fn a_refused_write_reports_no_byte_count() {
    let (domain, host, term) = boot(ServiceId::TERMINAL_SERVER, |ctx| {
        terminal_server(ctx, TerminalConfig::default())
    });
    domain.client(host, move |ctx| {
        let client = NameClient::new(ctx, ContextPair::new(term, ContextId::DEFAULT));
        client.write_file("tty0", b"ready").expect("create");
        let read_only = client.open("tty0", OpenMode::Read).expect("open");
        let mut msg = Message::request(RequestCode::WriteInstance);
        msg.set_word(fields::W_IO_INSTANCE, read_only.instance().0)
            .set_word(fields::W_IO_COUNT, 6);
        let reply = ctx
            .send(term, msg, Bytes::from_static(b"denied"), 0)
            .expect("an answer");
        assert_eq!(reply.msg.reply_code(), ReplyCode::BadMode);
        assert_eq!(reply.msg.word(fields::W_IO_COUNT), 0);
        assert_eq!(client.read_file("tty0").expect("read"), b"ready");
    });
}
