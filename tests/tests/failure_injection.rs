//! Failure injection across the naming system: server crashes, rebinding,
//! dangling prefixes, stale contexts — the paper's §2.2/§4.2 failure
//! arguments exercised end to end.

use integration_tests::{wait_for_service, AnyDomain};
use vkernel::{Domain, Ipc};
use vproto::{ContextId, ContextPair, OpenMode, Pid, ReplyCode, Scope, ServiceId};
use vruntime::NameClient;
use vservers::{file_server, prefix_server, FileServerConfig, PrefixConfig};

/// A file server whose `data.txt` holds `content`.
fn fs(content: &'static [u8]) -> impl FnOnce(&dyn Ipc) + Send + 'static {
    move |ctx| {
        file_server(
            ctx,
            FileServerConfig {
                preload: vec![("data.txt".into(), content.to_vec())],
                home: Some("".into()),
                ..FileServerConfig::default()
            },
        )
    }
}

fn spawn_fs(domain: &Domain, host: vproto::LogicalHost, content: &'static [u8]) -> Pid {
    domain.spawn(host, "fs", fs(content))
}

#[test]
fn direct_prefix_dangles_after_crash_but_logical_rebinds() {
    // The heart of the paper's §6 logical-prefix design: direct entries
    // hold a pid and die with the server; logical entries re-resolve.
    let domain = Domain::new();
    let host = domain.add_host();
    let fs_v1 = spawn_fs(&domain, host, b"version 1");
    domain.spawn(host, "prefix", |ctx| {
        prefix_server(ctx, PrefixConfig::default())
    });
    wait_for_service(&domain, host, ServiceId::CONTEXT_PREFIX);
    wait_for_service(&domain, host, ServiceId::FILE_SERVER);

    domain.client(host, move |ctx| {
        let client = NameClient::new(ctx, ContextPair::new(fs_v1, ContextId::DEFAULT));
        client
            .add_prefix("direct", ContextPair::new(fs_v1, ContextId::DEFAULT))
            .unwrap();
        client
            .add_logical_prefix("logical", ServiceId::FILE_SERVER, ContextId::DEFAULT)
            .unwrap();
        assert_eq!(client.read_file("[direct]data.txt").unwrap(), b"version 1");
        assert_eq!(client.read_file("[logical]data.txt").unwrap(), b"version 1");
    });

    domain.kill(fs_v1);
    let _fs_v2 = spawn_fs(&domain, host, b"version 2");
    wait_for_service(&domain, host, ServiceId::FILE_SERVER);

    domain.client(host, move |ctx| {
        let client = NameClient::new(ctx, ContextPair::new(Pid::NULL, ContextId::DEFAULT));
        // Direct prefix: forwards to a dead pid; the kernel fails the
        // transaction (the dangling-context case). The first failure makes
        // the prefix server garbage-collect the stale entry, so the
        // client's bounded retry surfaces either the transport failure or
        // the post-GC NotFound — never a hang or a retry storm.
        let err = client.read_file("[direct]data.txt").unwrap_err();
        assert!(
            matches!(
                err,
                vruntime::IoError::Ipc(_) | vruntime::IoError::Server(ReplyCode::NotFound)
            ),
            "expected dangling-prefix failure, got {err:?}"
        );
        // Logical prefix: re-resolves via GetPid and reaches the new server.
        assert_eq!(client.read_file("[logical]data.txt").unwrap(), b"version 2");
        // Repairing the direct prefix brings it back.
        let new_fs = ctx.get_pid(ServiceId::FILE_SERVER, Scope::Both).unwrap();
        client
            .add_prefix("direct", ContextPair::new(new_fs, ContextId::DEFAULT))
            .unwrap();
        assert_eq!(client.read_file("[direct]data.txt").unwrap(), b"version 2");
    });
}

/// The dangling direct prefix again, on both kernels, under a prefix too
/// long for the prefix table to hold inline: the kernel's verdict on the
/// forward to the dead server tombstones the entry through the table's own
/// heap-held name, so the next lookup is a clean `NotFound` until the
/// prefix is defined again.
#[test]
fn a_long_direct_prefix_is_tombstoned_when_its_server_dies() {
    const PREFIX: &str = "a-direct-prefix-past-the-inline-limit";
    for domain in AnyDomain::both() {
        let label = domain.label();
        let host = domain.add_host();
        let fs_v1 = domain.spawn(host, "fs", fs(b"version 1"));
        domain.spawn(host, "prefix", |ctx| {
            prefix_server(ctx, PrefixConfig::default())
        });
        domain.settle(host, Some(ServiceId::CONTEXT_PREFIX));
        domain.settle(host, Some(ServiceId::FILE_SERVER));
        let path = format!("[{PREFIX}]data.txt");
        domain.client(host, {
            let path = path.clone();
            move |ctx| {
                let client = NameClient::new(ctx, ContextPair::new(fs_v1, ContextId::DEFAULT));
                client
                    .add_prefix(PREFIX, ContextPair::new(fs_v1, ContextId::DEFAULT))
                    .unwrap();
                assert_eq!(client.read_file(&path).unwrap(), b"version 1");
            }
        });

        domain.kill(fs_v1);
        domain.spawn(host, "fs", fs(b"version 2"));
        domain.settle(host, Some(ServiceId::FILE_SERVER));
        domain.client(host, move |ctx| {
            let client = NameClient::new(ctx, ContextPair::new(Pid::NULL, ContextId::DEFAULT));
            let err = client.read_file(&path).unwrap_err();
            assert!(
                matches!(
                    err,
                    vruntime::IoError::Ipc(_) | vruntime::IoError::Server(ReplyCode::NotFound)
                ),
                "{label}: expected dangling-prefix failure, got {err:?}"
            );
            let err = client.read_file(&path).unwrap_err();
            assert_eq!(
                err.reply_code(),
                Some(ReplyCode::NotFound),
                "{label}: the stale entry was tombstoned, got {err:?}"
            );
            let new_fs = ctx.get_pid(ServiceId::FILE_SERVER, Scope::Both).unwrap();
            client
                .add_prefix(PREFIX, ContextPair::new(new_fs, ContextId::DEFAULT))
                .unwrap();
            assert_eq!(client.read_file(&path).unwrap(), b"version 2", "{label}");
        });
    }
}

#[test]
fn open_instance_dies_with_its_server() {
    let domain = Domain::new();
    let host = domain.add_host();
    let fs = spawn_fs(&domain, host, b"short lived");
    wait_for_service(&domain, host, ServiceId::FILE_SERVER);

    let (handle_server, instance) = domain.client(host, move |ctx| {
        let client = NameClient::new(ctx, ContextPair::new(fs, ContextId::DEFAULT));
        let h = client.open("data.txt", OpenMode::Read).unwrap();
        (h.server(), h.instance())
    });
    domain.kill(fs);
    let err = domain.client(host, move |ctx| {
        vio::read_at(ctx, handle_server, instance, 0, 16).unwrap_err()
    });
    assert!(matches!(err, vio::IoError::Ipc(_)), "{err:?}");
}

#[test]
fn current_context_dies_with_server_but_prefixes_recover() {
    // A client whose current context was on the dead server must fall back
    // to prefix-based (absolute) naming — mirroring how V users recovered.
    let domain = Domain::new();
    let host = domain.add_host();
    let fs_a = spawn_fs(&domain, host, b"A data");
    let fs_b = domain.spawn(host, "fs-b", |ctx| {
        file_server(
            ctx,
            FileServerConfig {
                service_scope: None,
                preload: vec![("backup.txt".into(), b"B data".to_vec())],
                ..FileServerConfig::default()
            },
        )
    });
    domain.spawn(host, "prefix", |ctx| {
        prefix_server(ctx, PrefixConfig::default())
    });
    wait_for_service(&domain, host, ServiceId::CONTEXT_PREFIX);

    domain.client(host, move |ctx| {
        let client = NameClient::new(ctx, ContextPair::new(fs_a, ContextId::DEFAULT));
        client
            .add_prefix("backup", ContextPair::new(fs_b, ContextId::DEFAULT))
            .unwrap();
        assert_eq!(client.read_file("data.txt").unwrap(), b"A data");
    });

    domain.kill(fs_a);
    domain.client(host, move |ctx| {
        let client = NameClient::new(ctx, ContextPair::new(fs_a, ContextId::DEFAULT));
        // Relative names fail: the current context is gone.
        assert!(client.read_file("data.txt").is_err());
        // Bracketed names still work: the prefix server is alive and B is up.
        assert_eq!(client.read_file("[backup]backup.txt").unwrap(), b"B data");
    });
}

#[test]
fn stale_ordinary_context_id_is_rejected_not_misinterpreted() {
    // Paper §5.2: ordinary context ids are valid only as long as the server
    // process exists. Simulate reuse-after-restart: a context id minted by
    // server v1 must NOT silently resolve against server v2.
    for domain in AnyDomain::both() {
        let host = domain.add_host();
        let fs = domain.spawn(host, "fs", |ctx| {
            file_server(
                ctx,
                FileServerConfig {
                    preload: vec![("dir/file.txt".into(), b"x".to_vec())],
                    ..FileServerConfig::default()
                },
            )
        });
        domain.settle(host, Some(ServiceId::FILE_SERVER));
        let code = domain.client(host, move |ctx| {
            let client = NameClient::new(ctx, ContextPair::new(fs, ContextId::DEFAULT));
            // Get a real (ordinary) context id for dir...
            let pair = client.query_name("dir").unwrap();
            assert!(!pair.context.is_well_known());
            // ...then fabricate one the server never issued.
            let bogus = ContextId::new(pair.context.raw() + 40_000);
            let bad_client = NameClient::new(ctx, ContextPair::new(fs, bogus));
            bad_client.read_file("file.txt").unwrap_err().reply_code()
        });
        assert_eq!(code, Some(ReplyCode::InvalidContext), "{}", domain.label());
    }
}

#[test]
fn group_member_crash_is_masked_by_the_group() {
    // §7's promise: a context implemented by a group of servers tolerates
    // a member's death — the multicast still gets an answer.
    use bytes::Bytes;
    use vnaming::build_csname_request;
    use vproto::{CsName, Message, RequestCode};

    let domain = Domain::new();
    let host = domain.add_host();
    let group = domain.client(host, |ctx| ctx.create_group());
    let mut members = Vec::new();
    for i in 0..3u16 {
        let g = group;
        members.push(domain.spawn(host, "member", move |ctx| {
            ctx.join_group(g).unwrap();
            ctx.set_pid(ServiceId::new(8000 + i as u32), Scope::Both);
            while let Ok(rx) = ctx.receive() {
                let mut m = Message::ok();
                m.set_word(5, i);
                ctx.reply(rx, m, Bytes::new()).ok();
            }
        }));
    }
    for i in 0..3u32 {
        wait_for_service(&domain, host, ServiceId::new(8000 + i));
    }
    let ask = |domain: &Domain| {
        domain.client(host, move |ctx| {
            let (msg, payload) = build_csname_request(
                RequestCode::QueryName,
                ContextId::DEFAULT,
                &CsName::from("anything"),
                &[],
            );
            ctx.send_group(group, msg, payload).map(|r| r.msg.word(5))
        })
    };
    assert!(ask(&domain).is_ok());
    domain.kill(members[0]);
    domain.kill(members[1]);
    // One member left: the group still answers.
    assert_eq!(ask(&domain).unwrap(), 2);
    domain.kill(members[2]);
    // Nobody left: a clean failure, not a hang.
    assert!(ask(&domain).is_err());
}
