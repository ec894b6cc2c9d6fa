//! Integration tests for the CSNH servers, driven through the standard
//! run-time routines on the real-thread kernel.

use bytes::Bytes;
use vkernel::Domain;
use vnaming::build_csname_request;
use vproto::{
    fields, ContextId, ContextPair, CsName, DescriptorExt, DescriptorTag, Message, OpenMode, Pid,
    ReplyCode, RequestCode, Scope, ServiceId,
};
use vruntime::{sync_status, NameClient};
use vservers::{
    file_server, mail_server, prefix_server, printer_server, program_manager, terminal_server,
    DegradedPrefixConfig, FileServerConfig, MailConfig, PrefixConfig, PrinterConfig, ProgramConfig,
    TerminalConfig,
};

/// Boots a one-workstation V installation: a prefix server and a file
/// server (with home + bin), returning the domain and host.
fn boot() -> (Domain, vproto::LogicalHost, Pid, Pid) {
    let domain = Domain::new();
    let host = domain.add_host();
    let fs = domain.spawn(host, "fileserver", |ctx| {
        file_server(
            ctx,
            FileServerConfig {
                preload: vec![
                    ("ng/mann/naming.mss".into(), b"The V naming paper".to_vec()),
                    ("ng/cheriton/naming.mss".into(), b"Another copy".to_vec()),
                    ("bin/ls".into(), b"binary".to_vec()),
                ],
                home: Some("ng/mann".into()),
                bin: Some("bin".into()),
                ..FileServerConfig::default()
            },
        )
    });
    let pfx = domain.spawn(host, "prefix", |ctx| {
        prefix_server(ctx, PrefixConfig::default())
    });
    wait_for(&domain, host, ServiceId::CONTEXT_PREFIX);
    wait_for(&domain, host, ServiceId::FILE_SERVER);
    (domain, host, fs, pfx)
}

fn wait_for(domain: &Domain, host: vproto::LogicalHost, svc: ServiceId) {
    while domain.registry().lookup(svc, Scope::Both, host).is_none() {
        std::thread::yield_now();
    }
}

/// Defines the standard prefixes a user's workstation would set up.
fn setup_prefixes(client: &NameClient<'_>, fs: Pid) {
    client
        .add_prefix("storage", ContextPair::new(fs, ContextId::DEFAULT))
        .unwrap();
    client
        .add_prefix("home", ContextPair::new(fs, ContextId::HOME))
        .unwrap();
    client
        .add_prefix("bin", ContextPair::new(fs, ContextId::STANDARD_PROGRAMS))
        .unwrap();
}

#[test]
fn open_read_through_prefix_and_current_context() {
    let (domain, host, fs, _) = boot();
    domain.client(host, move |ctx| {
        let boot_client = NameClient::new(ctx, ContextPair::new(fs, ContextId::DEFAULT));
        setup_prefixes(&boot_client, fs);

        // Through the prefix server.
        let data = boot_client.read_file("[home]naming.mss").unwrap();
        assert_eq!(data, b"The V naming paper");

        // Same file via a different prefix and a longer path — the paper's
        // own example of context-dependent interpretation (§5.2).
        let data2 = boot_client
            .read_file("[storage]ng/mann/naming.mss")
            .unwrap();
        assert_eq!(data2, data);

        // In the current context, no prefix at all.
        let mut client = NameClient::login(ctx, "[home]").unwrap();
        let data3 = client.read_file("naming.mss").unwrap();
        assert_eq!(data3, data);

        // And after a change of current context.
        client.change_context("[storage]ng/cheriton").unwrap();
        assert_eq!(client.read_file("naming.mss").unwrap(), b"Another copy");
    });
}

#[test]
fn write_query_modify_remove_rename() {
    let (domain, host, fs, _) = boot();
    domain.client(host, move |ctx| {
        let client = NameClient::new(ctx, ContextPair::new(fs, ContextId::DEFAULT));
        setup_prefixes(&client, fs);

        client
            .write_file("[home]todo.txt", b"reproduce the paper")
            .unwrap();
        let d = client.query("[home]todo.txt").unwrap();
        assert_eq!(d.tag(), Some(DescriptorTag::File));
        assert_eq!(d.size, 19);

        // Modify access-control bits — the paper's §5.5 example.
        let mut d2 = d.clone();
        d2.permissions = vproto::Permissions(vproto::Permissions::READ);
        client.modify("[home]todo.txt", &d2).unwrap();
        let d3 = client.query("[home]todo.txt").unwrap();
        assert_eq!(
            d3.permissions,
            vproto::Permissions(vproto::Permissions::READ)
        );

        client.rename("[home]todo.txt", "done.txt").unwrap();
        assert!(client.query("[home]todo.txt").is_err());
        assert_eq!(
            client.read_file("[home]done.txt").unwrap(),
            b"reproduce the paper"
        );

        client.remove("[home]done.txt").unwrap();
        assert!(client.read_file("[home]done.txt").is_err());
    });
}

#[test]
fn directories_create_and_refuse_nonempty_removal() {
    let (domain, host, fs, _) = boot();
    domain.client(host, move |ctx| {
        let client = NameClient::new(ctx, ContextPair::new(fs, ContextId::DEFAULT));
        setup_prefixes(&client, fs);
        client.make_directory("[home]projects").unwrap();
        client
            .write_file("[home]projects/x.rs", b"fn main(){}")
            .unwrap();
        let err = client.remove("[home]projects").unwrap_err();
        assert_eq!(err.reply_code(), Some(ReplyCode::NotEmpty));
        client.remove("[home]projects/x.rs").unwrap();
        client.remove("[home]projects").unwrap();
    });
}

#[test]
fn list_directory_returns_typed_records_with_patterns() {
    let (domain, host, fs, _) = boot();
    domain.client(host, move |ctx| {
        let client = NameClient::new(ctx, ContextPair::new(fs, ContextId::DEFAULT));
        setup_prefixes(&client, fs);
        let all = client.list_directory("[storage]ng/mann", None).unwrap();
        assert_eq!(all.len(), 1);
        assert_eq!(all[0].name.to_string_lossy(), "naming.mss");

        let listing = client.list_directory("[storage]ng", None).unwrap();
        let names: Vec<String> = listing.iter().map(|d| d.name.to_string_lossy()).collect();
        assert_eq!(names, ["cheriton", "mann"]);
        assert!(listing
            .iter()
            .all(|d| d.tag() == Some(DescriptorTag::Directory)));

        // Pattern matching (the paper's §5.6 proposed extension).
        client.write_file("[home]a.rs", b"x").unwrap();
        client.write_file("[home]b.txt", b"y").unwrap();
        let rs_only = client.list_directory("[home]", Some("*.rs")).unwrap();
        assert_eq!(rs_only.len(), 1);
        assert_eq!(rs_only[0].name.to_string_lossy(), "a.rs");
    });
}

#[test]
fn cross_server_link_forwards_mid_name() {
    // Figure 4's curved arrow: a name that starts on server A and finishes
    // on server B, with the request forwarded mid-interpretation.
    let (domain, host, fs_a, _) = boot();
    let fs_b = domain.spawn(host, "fileserver-b", |ctx| {
        file_server(
            ctx,
            FileServerConfig {
                service_scope: None,
                preload: vec![("shared/paper.txt".into(), b"on server B".to_vec())],
                ..FileServerConfig::default()
            },
        )
    });
    domain.client(host, move |ctx| {
        let client = NameClient::new(ctx, ContextPair::new(fs_a, ContextId::DEFAULT));
        setup_prefixes(&client, fs_a);
        // Link [home]remote -> B's root context.
        client
            .add_link("[home]remote", ContextPair::new(fs_b, ContextId::DEFAULT))
            .unwrap();
        // One name, two servers.
        let data = client.read_file("[home]remote/shared/paper.txt").unwrap();
        assert_eq!(data, b"on server B");
        // The responding server is B, transparently to the client.
        let handle = client
            .open("[home]remote/shared/paper.txt", OpenMode::Read)
            .unwrap();
        assert_eq!(handle.server(), fs_b);
        // The link appears in the directory listing as a context pointer.
        let listing = client.list_directory("[home]", None).unwrap();
        let link = listing
            .iter()
            .find(|d| d.name.to_string_lossy() == "remote")
            .unwrap();
        assert_eq!(link.tag(), Some(DescriptorTag::ContextPrefix));
    });
}

#[test]
fn logical_prefix_survives_server_crash_and_rebind() {
    // Paper §4.2 + §6: logical (service, well-known-context) prefixes are
    // re-resolved via GetPid on each use, so a restarted server with a new
    // pid keeps its names working.
    let (domain, host, fs_v1, _) = boot();
    let check = |expect: &'static [u8], label: &'static str| {
        let d = domain.clone();
        d.client(host, move |ctx| {
            let client = NameClient::new(ctx, ContextPair::new(Pid::NULL, ContextId::DEFAULT));
            client
                .add_logical_prefix("files", ServiceId::FILE_SERVER, ContextId::HOME)
                .unwrap();
            let data = client.read_file("[files]naming.mss").unwrap();
            assert_eq!(data, expect, "{label}");
        });
    };
    check(b"The V naming paper", "before crash");

    domain.kill(fs_v1);
    let _fs_v2 = domain.spawn(host, "fileserver-v2", |ctx| {
        file_server(
            ctx,
            FileServerConfig {
                preload: vec![("ng/mann/naming.mss".into(), b"restored from tape".to_vec())],
                home: Some("ng/mann".into()),
                ..FileServerConfig::default()
            },
        )
    });
    wait_for(&domain, host, ServiceId::FILE_SERVER);
    check(b"restored from tape", "after rebind");
}

#[test]
fn unknown_csname_operation_is_forwarded_not_rejected() {
    // Paper §5.3: a CSNH server can process (route) CSname requests whose
    // operation codes it has never seen; the *implementing* server answers.
    let (domain, host, fs, pfx) = boot();
    domain.client(host, move |ctx| {
        let client = NameClient::new(ctx, ContextPair::new(fs, ContextId::DEFAULT));
        setup_prefixes(&client, fs);
        let name = CsName::from("[home]naming.mss");
        let (template, payload) =
            build_csname_request(RequestCode::QueryObject, ContextId::DEFAULT, &name, &[]);
        let mut msg = Message::request_raw(0x8ABC); // unknown CSname op
        for i in 1..vproto::MSG_WORDS {
            msg.set_word(i, template.word(i));
        }
        let reply = ctx.send(pfx, msg, payload, 0).unwrap();
        // The prefix server forwarded it; the FILE SERVER (which resolved
        // the name but does not know the op) answered UnknownRequest.
        assert_eq!(reply.msg.reply_code(), ReplyCode::UnknownRequest);
    });
}

#[test]
fn prefix_directory_lists_definitions_and_inverse_maps() {
    let (domain, host, fs, pfx) = boot();
    domain.client(host, move |ctx| {
        let client = NameClient::new(ctx, ContextPair::new(fs, ContextId::DEFAULT));
        setup_prefixes(&client, fs);
        // The prefix context itself is listable (paper §6 lists "context
        // prefixes" among the things the single list command shows).
        let client2 = NameClient::new(ctx, ContextPair::new(pfx, ContextId::DEFAULT));
        let listing = client2.list_directory("", None).unwrap();
        let names: Vec<String> = listing.iter().map(|d| d.name.to_string_lossy()).collect();
        assert_eq!(names, ["bin", "home", "storage"]);
        assert!(listing
            .iter()
            .all(|d| d.tag() == Some(DescriptorTag::ContextPrefix)));

        // Inverse mapping: (server, ctx) → "[prefix]".
        let mut msg = Message::request(RequestCode::GetContextName);
        msg.set_pid_at(fields::W_TARGET_PID_LO, fs);
        msg.set_word32(fields::W_TARGET_CTX_LO, ContextId::HOME.raw());
        let reply = ctx.send(pfx, msg, Bytes::new(), 256).unwrap();
        assert_eq!(reply.msg.reply_code(), ReplyCode::Ok);
        assert_eq!(&reply.data[..], b"[home]");

        // Deleting a prefix makes names under it fail.
        client.delete_prefix("home").unwrap();
        let err = client.read_file("[home]naming.mss").unwrap_err();
        assert_eq!(err.reply_code(), Some(ReplyCode::NotFound));
    });
}

/// Several prefixes bound to one pair: the inverse mapping answers the
/// first of them in name order, whatever order they were defined in, and
/// the next one once that is deleted.
#[test]
fn inverse_mapping_answers_the_first_name_in_name_order() {
    let (domain, host, fs, pfx) = boot();
    domain.client(host, move |ctx| {
        let client = NameClient::new(ctx, ContextPair::new(fs, ContextId::DEFAULT));
        let pair = ContextPair::new(fs, ContextId::new(0x77));
        for prefix in ["gamma", "beta", "alpha"] {
            client.add_prefix(prefix, pair).unwrap();
        }
        let inverse = || {
            let mut msg = Message::request(RequestCode::GetContextName);
            msg.set_pid_at(fields::W_TARGET_PID_LO, pair.server);
            msg.set_word32(fields::W_TARGET_CTX_LO, pair.context.raw());
            let reply = ctx.send(pfx, msg, Bytes::new(), 256).unwrap();
            assert_eq!(reply.msg.reply_code(), ReplyCode::Ok);
            reply.data.to_vec()
        };
        assert_eq!(inverse(), b"[alpha]");
        client.delete_prefix("alpha").unwrap();
        assert_eq!(inverse(), b"[beta]");
    });
}

#[test]
fn reverse_mapping_of_current_context() {
    let (domain, host, fs, _) = boot();
    domain.client(host, move |ctx| {
        let mut client = NameClient::new(ctx, ContextPair::new(fs, ContextId::DEFAULT));
        setup_prefixes(&client, fs);
        client.change_context("[storage]ng/mann").unwrap();
        let name = client.current_context_name().unwrap();
        assert_eq!(name.to_string_lossy(), "/ng/mann");
    });
}

#[test]
fn directory_write_modifies_object() {
    // Paper §5.6: writing a description record to a context directory has
    // the semantics of the modification operation.
    let (domain, host, fs, _) = boot();
    domain.client(host, move |ctx| {
        let client = NameClient::new(ctx, ContextPair::new(fs, ContextId::DEFAULT));
        setup_prefixes(&client, fs);
        let mut handle = client.open("[home]", OpenMode::Directory).unwrap();
        let mut d = client.query("[home]naming.mss").unwrap();
        d.permissions = vproto::Permissions(vproto::Permissions::READ);
        handle.write_next(ctx, &d.encode()).unwrap();
        handle.close(ctx).unwrap();
        let after = client.query("[home]naming.mss").unwrap();
        assert_eq!(
            after.permissions,
            vproto::Permissions(vproto::Permissions::READ)
        );
    });
}

#[test]
fn terminal_server_round_trip() {
    let domain = Domain::new();
    let host = domain.add_host();
    let term = domain.spawn(host, "terminals", |ctx| {
        terminal_server(ctx, TerminalConfig::default())
    });
    domain.client(host, move |ctx| {
        let client = NameClient::new(ctx, ContextPair::new(term, ContextId::DEFAULT));
        client.write_file("tty0", b"hello, 1984").unwrap();
        assert_eq!(client.read_file("tty0").unwrap(), b"hello, 1984");
        let d = client.query("tty0").unwrap();
        assert_eq!(d.tag(), Some(DescriptorTag::Terminal));
        assert!(matches!(
            d.ext,
            DescriptorExt::Terminal {
                columns: 80,
                rows: 24
            }
        ));
        let listing = client.list_directory("", None).unwrap();
        assert_eq!(listing.len(), 1);
        client.remove("tty0").unwrap();
        assert!(client.query("tty0").is_err());
    });
}

#[test]
fn printer_queue_positions_update_on_removal() {
    let domain = Domain::new();
    let host = domain.add_host();
    let prt = domain.spawn(host, "printer", |ctx| {
        printer_server(ctx, PrinterConfig::default())
    });
    domain.client(host, move |ctx| {
        let client = NameClient::new(ctx, ContextPair::new(prt, ContextId::DEFAULT));
        for (job, body) in [
            ("thesis", "100 pages"),
            ("memo", "1 page"),
            ("code", "listing"),
        ] {
            client.write_file(job, body.as_bytes()).unwrap();
        }
        let listing = client.list_directory("", None).unwrap();
        let positions: Vec<(String, u32)> = listing
            .iter()
            .map(|d| {
                let pos = match d.ext {
                    DescriptorExt::PrintJob { queue_position } => queue_position,
                    _ => panic!("not a print job"),
                };
                (d.name.to_string_lossy(), pos)
            })
            .collect();
        // Queue directories list in submission order.
        assert_eq!(
            positions,
            [("thesis".into(), 0), ("memo".into(), 1), ("code".into(), 2)]
        );
        // The head job finishes; everyone moves up.
        client.remove("thesis").unwrap();
        let memo = client.query("memo").unwrap();
        assert!(matches!(
            memo.ext,
            DescriptorExt::PrintJob { queue_position: 0 }
        ));
    });
}

#[test]
fn program_manager_lists_programs_in_execution() {
    let domain = Domain::new();
    let host = domain.add_host();
    let mgr = domain.spawn(host, "programs", |ctx| {
        program_manager(ctx, ProgramConfig::default())
    });
    domain.client(host, move |ctx| {
        let client = NameClient::new(ctx, ContextPair::new(mgr, ContextId::DEFAULT));
        // Register two programs via the protocol's CreateObject.
        for name in ["emacs", "make"] {
            let csname = CsName::from(name);
            let (msg, payload) =
                build_csname_request(RequestCode::CreateObject, ContextId::DEFAULT, &csname, &[]);
            let reply = ctx.send(mgr, msg, payload, 0).unwrap();
            assert!(reply.msg.reply_code().is_ok());
        }
        let listing = client.list_directory("", None).unwrap();
        let names: Vec<String> = listing.iter().map(|d| d.name.to_string_lossy()).collect();
        assert_eq!(names, ["emacs", "make"]);
        assert!(listing
            .iter()
            .all(|d| d.tag() == Some(DescriptorTag::Program)));
        client.remove("make").unwrap();
        assert_eq!(client.list_directory("", None).unwrap().len(), 1);
    });
}

#[test]
fn mail_names_resolve_locally_and_forward_to_peers() {
    // The paper's §2.2 extensibility example: "cheriton@su-score.ARPA".
    let domain = Domain::new();
    let host = domain.add_host();
    let score = domain.spawn(host, "mail-score", |ctx| {
        mail_server(ctx, MailConfig::new("su-score.ARPA"))
    });
    let navajo = domain.spawn(host, "mail-navajo", move |ctx| {
        mail_server(
            ctx,
            MailConfig::new("su-navajo.ARPA").with_peer("su-score.ARPA", score),
        )
    });
    domain.client(host, move |ctx| {
        // Deliver to a local mailbox on navajo.
        let client = NameClient::new(ctx, ContextPair::new(navajo, ContextId::DEFAULT));
        let mut mbox = client
            .open("mann@su-navajo.ARPA", OpenMode::Append)
            .unwrap();
        mbox.write_next(ctx, b"see you at ICDCS").unwrap();
        mbox.close(ctx).unwrap();
        let d = client.query("mann@su-navajo.ARPA").unwrap();
        assert_eq!(d.tag(), Some(DescriptorTag::Mailbox));
        assert!(matches!(d.ext, DescriptorExt::Mailbox { unread: 1 }));

        // Deliver to a mailbox on ANOTHER host: navajo forwards to score,
        // which creates and owns the mailbox.
        let mut remote = client
            .open("cheriton@su-score.ARPA", OpenMode::Append)
            .unwrap();
        assert_eq!(remote.server(), score, "request must forward to the peer");
        remote.write_next(ctx, b"draft attached").unwrap();
        remote.close(ctx).unwrap();

        // Reading it directly from score shows the delivery.
        let score_client = NameClient::new(ctx, ContextPair::new(score, ContextId::DEFAULT));
        let body = score_client.read_file("cheriton@su-score.ARPA").unwrap();
        assert_eq!(body, b"draft attached\n");

        // A host nobody claims fails cleanly.
        let err = client.open("who@nowhere", OpenMode::Append).unwrap_err();
        assert_eq!(err.reply_code(), Some(ReplyCode::NotFound));
    });
}

#[test]
fn well_known_contexts_home_and_bin() {
    let (domain, host, fs, _) = boot();
    domain.client(host, move |ctx| {
        // Well-known context ids work directly, without any prefix server.
        let client = NameClient::new(ctx, ContextPair::new(fs, ContextId::HOME));
        assert_eq!(
            client.read_file("naming.mss").unwrap(),
            b"The V naming paper"
        );
        let bin = NameClient::new(ctx, ContextPair::new(fs, ContextId::STANDARD_PROGRAMS));
        assert_eq!(bin.read_file("ls").unwrap(), b"binary");
    });
}

#[test]
fn stale_context_id_rejected_after_restart_semantics() {
    // Ordinary context ids are valid only while the issuing server lives
    // (paper §5.2). A made-up ordinary id must be rejected.
    let (domain, host, fs, _) = boot();
    domain.client(host, move |ctx| {
        let client = NameClient::new(ctx, ContextPair::new(fs, ContextId::new(0xDEAD_BEEF)));
        let err = client.read_file("naming.mss").unwrap_err();
        assert_eq!(err.reply_code(), Some(ReplyCode::InvalidContext));
    });
}

#[test]
fn access_control_bits_are_enforced_on_open() {
    // Paper §5.5: the modification operation changes access-control bits;
    // the server then enforces them.
    let (domain, host, fs, _) = boot();
    domain.client(host, move |ctx| {
        let client = NameClient::new(ctx, ContextPair::new(fs, ContextId::DEFAULT));
        setup_prefixes(&client, fs);
        client
            .write_file("[home]secret.txt", b"classified")
            .unwrap();

        // Make it read-only via ModifyObject.
        let mut d = client.query("[home]secret.txt").unwrap();
        d.permissions = vproto::Permissions(vproto::Permissions::READ);
        client.modify("[home]secret.txt", &d).unwrap();

        // Reading still works; write-mode opens are refused.
        assert_eq!(client.read_file("[home]secret.txt").unwrap(), b"classified");
        let err = client
            .open("[home]secret.txt", OpenMode::Write)
            .unwrap_err();
        assert_eq!(err.reply_code(), Some(ReplyCode::NoPermission));
        let err = client
            .open("[home]secret.txt", OpenMode::Append)
            .unwrap_err();
        assert_eq!(err.reply_code(), Some(ReplyCode::NoPermission));

        // Revoking READ blocks read-mode opens too.
        d.permissions = vproto::Permissions(0);
        client.modify("[home]secret.txt", &d).unwrap();
        let err = client.open("[home]secret.txt", OpenMode::Read).unwrap_err();
        assert_eq!(err.reply_code(), Some(ReplyCode::NoPermission));

        // Restoring read+write restores access.
        d.permissions = vproto::Permissions::default_rw();
        client.modify("[home]secret.txt", &d).unwrap();
        assert_eq!(client.read_file("[home]secret.txt").unwrap(), b"classified");
    });
}

#[test]
fn local_alias_gives_object_two_names_and_ambiguous_inverse() {
    // Paper §6: reverse mapping "is the inverse mapping of a many-to-one
    // function so the CSname may not be the one that was in fact used."
    let (domain, host, fs, _) = boot();
    domain.client(host, move |ctx| {
        let client = NameClient::new(ctx, ContextPair::new(fs, ContextId::DEFAULT));
        setup_prefixes(&client, fs);
        // Alias [storage]mann-home -> the home directory context.
        let home_pair = client.query_name("[home]").unwrap();
        assert_eq!(home_pair.server, fs);
        client.add_link("[storage]mann-home", home_pair).unwrap();

        // The same file is now reachable under two names.
        let via_alias = client.read_file("[storage]mann-home/naming.mss").unwrap();
        let via_primary = client.read_file("[home]naming.mss").unwrap();
        assert_eq!(via_alias, via_primary);

        // A change of current context through the ALIAS...
        let mut cd = NameClient::new(ctx, ContextPair::new(fs, ContextId::DEFAULT));
        cd.change_context("[storage]mann-home").unwrap();
        // ...reverse-maps to the PRIMARY path, not the name actually used —
        // exactly the deficiency the paper reports.
        let pwd = cd.current_context_name().unwrap();
        assert_eq!(pwd.to_string_lossy(), "/ng/mann");
    });
}

#[test]
fn failed_interpretation_reports_where_it_stopped() {
    // Paper §7: error reporting for failures deep in interpretation. The
    // failure reply carries the byte index; diagnose() renders it.
    let (domain, host, fs, _) = boot();
    domain.client(host, move |ctx| {
        let client = NameClient::new(ctx, ContextPair::new(fs, ContextId::DEFAULT));
        setup_prefixes(&client, fs);
        // Fails at "nosuchdir" (byte 3 of the name, after "ng/").
        let report = client
            .diagnose("[storage]ng/nosuchdir/naming.mss")
            .unwrap()
            .expect("name must fail");
        assert!(report.contains("NotFound"), "{report}");
        assert!(report.contains("nosuchdir"), "{report}");
        assert!(!report.contains("naming.mss\" , failed"), "{report}");
        // A healthy name diagnoses clean.
        assert_eq!(client.diagnose("[home]naming.mss").unwrap(), None);
    });
}

#[test]
fn resolve_batch_answers_many_prefixes_from_one_snapshot() {
    let (domain, host, fs, _) = boot();
    domain.client(host, move |ctx| {
        let client = NameClient::new(ctx, ContextPair::new(fs, ContextId::DEFAULT));
        setup_prefixes(&client, fs);
        client
            .add_logical_prefix("files", ServiceId::FILE_SERVER, ContextId::DEFAULT)
            .unwrap();

        let outcomes = client
            .resolve_batch(&["home", "bin", "no-such-prefix", "files", "storage"])
            .unwrap();
        assert_eq!(outcomes.len(), 5);
        // Direct entries come back bound, fresh (the authority defined
        // them first-hand), with the exact (server, context) pairs.
        let expect_bound = |o: &vruntime::BatchOutcome, ctx_id: ContextId| match o {
            vruntime::BatchOutcome::Bound(b) => {
                assert_eq!(b.target, ContextPair::new(fs, ctx_id));
                assert_eq!(b.staleness, vruntime::Staleness::Fresh);
            }
            other => panic!("expected bound, got {other:?}"),
        };
        expect_bound(&outcomes[0], ContextId::HOME);
        expect_bound(&outcomes[1], ContextId::STANDARD_PROGRAMS);
        assert_eq!(outcomes[2], vruntime::BatchOutcome::NotFound);
        // The logical entry re-resolves via GetPid at answer time.
        expect_bound(&outcomes[3], ContextId::DEFAULT);
        expect_bound(&outcomes[4], ContextId::DEFAULT);

        // A deletion the server handled before the next batch: the same
        // name that just resolved now answers NotFound — and the batch's
        // other answers are untouched.
        client.delete_prefix("bin").unwrap();
        let outcomes = client.resolve_batch(&["home", "bin"]).unwrap();
        expect_bound(&outcomes[0], ContextId::HOME);
        assert_eq!(outcomes[1], vruntime::BatchOutcome::NotFound);

        // An empty batch is legal and answers nothing.
        assert_eq!(client.resolve_batch(&[]).unwrap(), vec![]);
    });
}

/// Regression (ISSUE 12): the `SyncPull` reply carries its counts in 16-bit
/// message words, and used to write them with `as u16` — a cold replica
/// adopting 70 000 entries reported 4 464. They saturate now, like every
/// other advisory sync count; the exact figure is `SyncStatusRec.adopted`.
#[test]
fn sync_pull_summary_saturates_past_u16() {
    const NAMES: u32 = 70_000;
    let domain = Domain::new();
    let (host_a, host_r) = (domain.add_host(), domain.add_host());
    let authority = domain.spawn(host_a, "authority", |ctx| {
        let target = |i| ContextPair::new(Pid::from_raw(0x0001_0001), ContextId::new(i));
        prefix_server(
            ctx,
            PrefixConfig {
                preload_direct: (0..NAMES)
                    .map(|i| (format!("n{i:05}"), target(i)))
                    .collect(),
                degraded: Some(DegradedPrefixConfig::default()),
                ..PrefixConfig::default()
            },
        )
    });
    wait_for(&domain, host_a, ServiceId::CONTEXT_PREFIX);
    let replica = domain.spawn(host_r, "replica", move |ctx| {
        prefix_server(
            ctx,
            PrefixConfig {
                degraded: Some(DegradedPrefixConfig {
                    authoritative: false,
                    sync_peer: Some(authority),
                    ..DegradedPrefixConfig::default()
                }),
                ..PrefixConfig::default()
            },
        )
    });
    wait_for(&domain, host_r, ServiceId::CONTEXT_PREFIX);
    domain.client(host_r, move |ctx| {
        let client = NameClient::new(ctx, ContextPair::new(replica, ContextId::DEFAULT));
        let summary = client
            .sync_pull(replica)
            .expect("one round converges a cold replica");
        assert_eq!(summary.adopted, 65_535, "saturated, not truncated");
        assert_eq!((summary.dropped, summary.promoted), (0, 0));
        let status = sync_status(ctx, replica).expect("status");
        assert_eq!(
            status.adopted, NAMES,
            "the exact count is in the status record"
        );
        assert_eq!(status.live_entries, NAMES);
        assert_eq!(
            Some(status.table_hash),
            sync_status(ctx, authority).map(|s| s.table_hash)
        );
    });
}

/// Regression (ISSUE 13): the prefix server's `ReadInstance` reply wrote
/// `window.len() as u16`, safe only because the window is bounded by a
/// count that itself arrived in a 16-bit word. The largest request the
/// protocol can express, against a directory image larger than 64 KiB,
/// returns exactly that many bytes and says so.
#[test]
fn prefix_directory_read_of_u16_max_reports_exact_count() {
    let domain = Domain::new();
    let host = domain.add_host();
    let pfx = domain.spawn(host, "prefix", |ctx| {
        let target = |i| ContextPair::new(Pid::from_raw(0x0001_0001), ContextId::new(i));
        prefix_server(
            ctx,
            PrefixConfig {
                preload_direct: (0..4_000u32)
                    .map(|i| (format!("n{i:05}"), target(i)))
                    .collect(),
                ..PrefixConfig::default()
            },
        )
    });
    wait_for(&domain, host, ServiceId::CONTEXT_PREFIX);
    domain.client(host, move |ctx| {
        let client = NameClient::new(ctx, ContextPair::new(pfx, ContextId::DEFAULT));
        let dir = client.open("", OpenMode::Directory).expect("directory");
        assert!(dir.size() > 64 * 1024, "image is only {} bytes", dir.size());
        let mut msg = Message::request(RequestCode::ReadInstance);
        msg.set_word(fields::W_IO_INSTANCE, dir.instance().0)
            .set_word32(fields::W_IO_OFFSET_LO, 0)
            .set_word(fields::W_IO_COUNT, u16::MAX);
        let reply = ctx
            .send(dir.server(), msg, Bytes::new(), usize::from(u16::MAX))
            .expect("read");
        assert_eq!(reply.msg.reply_code(), ReplyCode::Ok);
        assert_eq!(reply.data.len(), 65_535);
        assert_eq!(reply.msg.word(fields::W_IO_COUNT), 65_535);
        dir.close(ctx).expect("close");
    });
}
