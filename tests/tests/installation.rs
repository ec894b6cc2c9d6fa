//! An installation-scale scenario approximating the paper's §6 deployment:
//! "about 30" diskless workstations and 7 file servers on one network, each
//! workstation running its own context prefix server, terminal server and
//! program manager — driven deterministically on the virtual-time kernel.

use std::sync::Arc;
use vkernel::SimDomain;
use vnet::Params1984;
use vproto::{ContextId, ContextPair, LogicalHost, Pid, Scope, ServiceId};
use vruntime::NameClient;
use vservers::{
    file_server, prefix_server, program_manager, terminal_server, FileServerConfig, PrefixConfig,
    ProgramConfig, TerminalConfig,
};

const WORKSTATIONS: usize = 30;
const FILE_SERVERS: usize = 7;

struct Installation {
    domain: SimDomain,
    workstations: Vec<LogicalHost>,
    file_servers: Vec<Pid>,
}

fn boot_installation() -> Installation {
    let domain = SimDomain::new(Params1984::ethernet_3mbit());
    // Server machines, each running one file server (the paper's 7
    // VAX/UNIX systems running the file server software).
    let file_servers: Vec<Pid> = (0..FILE_SERVERS)
        .map(|i| {
            let machine = domain.add_host();
            let cfg = FileServerConfig {
                service_scope: Some(Scope::Both),
                preload: vec![
                    (
                        format!("pub/motd{i}.txt"),
                        format!("welcome to fs{i}").into_bytes(),
                    ),
                    ("bin/ls".into(), b"exec".to_vec()),
                ],
                bin: Some("bin".into()),
                ..FileServerConfig::default()
            };
            domain.spawn(machine, &format!("fs{i}"), move |ctx| file_server(ctx, cfg))
        })
        .collect();
    // Workstations: prefix server + terminal server + program manager each.
    let workstations: Vec<LogicalHost> = (0..WORKSTATIONS)
        .map(|_| {
            let ws = domain.add_host();
            domain.spawn(ws, "prefix", |ctx| {
                prefix_server(ctx, PrefixConfig::default())
            });
            domain.spawn(ws, "terms", |ctx| {
                terminal_server(ctx, TerminalConfig::default())
            });
            domain.spawn(ws, "progs", |ctx| {
                program_manager(ctx, ProgramConfig::default())
            });
            ws
        })
        .collect();
    domain.run();
    Installation {
        domain,
        workstations,
        file_servers,
    }
}

#[test]
fn thirty_workstations_share_seven_file_servers() {
    let inst = boot_installation();
    let results = Arc::new(std::sync::Mutex::new(Vec::<(usize, Vec<u8>)>::new()));
    for (w, &ws) in inst.workstations.iter().enumerate() {
        let fs = inst.file_servers[w % FILE_SERVERS];
        let fs_home = inst.file_servers[(w + 1) % FILE_SERVERS];
        let out = Arc::clone(&results);
        inst.domain.spawn(ws, "user", move |ctx| {
            // Per-user prefixes: a primary server and a "home" on another.
            let client = NameClient::new(ctx, ContextPair::new(fs, ContextId::DEFAULT));
            client
                .add_prefix("fs", ContextPair::new(fs, ContextId::DEFAULT))
                .unwrap();
            client
                .add_prefix("other", ContextPair::new(fs_home, ContextId::DEFAULT))
                .unwrap();
            // Everyone works concurrently: writes home files, reads the
            // shared motd, lists a directory, uses the local terminal.
            client
                .write_file(
                    &format!("[fs]pub/user{w}.txt"),
                    format!("user {w}").as_bytes(),
                )
                .unwrap();
            let motd = client
                .read_file(&format!("[other]pub/motd{}.txt", (w + 1) % FILE_SERVERS))
                .unwrap();
            let listing = client.list_directory("[fs]pub", None).unwrap();
            assert!(!listing.is_empty());
            let tty = ctx
                .get_pid(ServiceId::TERMINAL_SERVER, Scope::Local)
                .expect("local terminal server");
            let term_client = NameClient::new(ctx, ContextPair::new(tty, ContextId::DEFAULT));
            term_client
                .write_file("console", format!("user {w} logged in").as_bytes())
                .unwrap();
            out.lock().unwrap().push((w, motd));
        });
    }
    let end = inst.domain.run();
    let results = results.lock().unwrap();
    assert_eq!(results.len(), WORKSTATIONS, "every user completed");
    for (w, motd) in results.iter() {
        let expect = format!("welcome to fs{}", (w + 1) % FILE_SERVERS);
        assert_eq!(motd, expect.as_bytes(), "user {w}");
    }
    // 30 users work concurrently in virtual time: the whole day's work
    // takes far less than 30 × one user's serial time.
    let ms = end.as_millis_f64();
    assert!(ms < 2_000.0, "installation run took {ms} virtual ms");
}

#[test]
fn per_workstation_services_are_isolated() {
    let inst = boot_installation();
    let ws0 = inst.workstations[0];
    let ws1 = inst.workstations[1];
    // Each workstation's GetPid(Local) finds ITS OWN terminal server.
    let t0 = inst
        .domain
        .client(ws0, |ctx| {
            ctx.get_pid(ServiceId::TERMINAL_SERVER, Scope::Local)
        })
        .unwrap()
        .unwrap();
    let t1 = inst
        .domain
        .client(ws1, |ctx| {
            ctx.get_pid(ServiceId::TERMINAL_SERVER, Scope::Local)
        })
        .unwrap()
        .unwrap();
    assert_ne!(t0, t1);
    assert!(t0.is_on(ws0));
    assert!(t1.is_on(ws1));
    // Local-scope services are invisible across workstations.
    let cross = inst
        .domain
        .client(ws0, |ctx| {
            ctx.get_pid(ServiceId::CONTEXT_PREFIX, Scope::Both)
        })
        .unwrap()
        .unwrap();
    assert!(cross.is_on(ws0), "prefix lookup must stay on-workstation");
}

#[test]
fn one_file_server_crash_only_affects_its_clients() {
    let inst = boot_installation();
    let dead = inst.file_servers[0];
    inst.domain.kill(dead);
    inst.domain.run();
    // A client of the dead server fails...
    let err = inst
        .domain
        .client(inst.workstations[0], move |ctx| {
            let client = NameClient::new(ctx, ContextPair::new(dead, ContextId::DEFAULT));
            client.read_file("pub/motd0.txt").map(|_| ()).unwrap_err()
        })
        .unwrap();
    assert!(matches!(err, vruntime::IoError::Ipc(_)));
    // ...while every other server keeps serving everyone.
    for (i, &fs) in inst.file_servers.iter().enumerate().skip(1) {
        let data = inst
            .domain
            .client(inst.workstations[i], move |ctx| {
                let client = NameClient::new(ctx, ContextPair::new(fs, ContextId::DEFAULT));
                client.read_file(&format!("pub/motd{i}.txt")).unwrap()
            })
            .unwrap();
        assert_eq!(data, format!("welcome to fs{i}").into_bytes());
    }
    // Opening a file by PLACED name fails only for the dead tree — the
    // paper's reliability argument: no central point took everything down.
    let survivors = inst.file_servers.len() - 1;
    assert_eq!(survivors, FILE_SERVERS - 1);
}
