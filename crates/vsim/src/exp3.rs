//! EXP-3 — Sequential file reading over the I/O protocol (paper §3.1).
//!
//! Paper: "with a disk delivering a 512 byte page every 15 milliseconds, a
//! file can be read sequentially averaging 17.13 milliseconds per page.
//! This is comparable to the performance of highly tuned special-purpose
//! file access protocols."

use crate::report::{ms, ExpReport, ExpRow};
use crate::world::sleep_until;
use std::time::Duration;
use vkernel::SimDomain;
use vnet::Params1984;
use vproto::{ContextId, ContextPair, OpenMode, Scope};
use vruntime::NameClient;
use vservers::{file_server, FileServerConfig};

/// Reads a `pages`-page file sequentially from a remote file server with
/// the 1984 disk model; returns average virtual time per page.
pub fn measure_read(params: Params1984, pages: usize) -> Duration {
    let domain = SimDomain::new(params.clone());
    let (ws, server_machine) = (domain.add_host(), domain.add_host());
    let page = params.disk_page_bytes;
    let content = vec![0xABu8; pages * page];
    let fs = domain.spawn(server_machine, "fs", move |ctx| {
        file_server(
            ctx,
            FileServerConfig {
                service_scope: Some(Scope::Both),
                preload: vec![("big.dat".into(), content)],
                simulate_disk: true,
                ..FileServerConfig::default()
            },
        )
    });
    domain
        .client(ws, move |ctx| {
            let client = NameClient::new(ctx, ContextPair::new(fs, ContextId::DEFAULT));
            let mut handle = client
                .open("big.dat", OpenMode::Read)
                .unwrap()
                .with_block(page);
            let t0 = ctx.now();
            let mut total = 0usize;
            while let Some(chunk) = handle.read_next(ctx).unwrap() {
                total += chunk.len();
            }
            assert_eq!(total, pages * page);
            (ctx.now() - t0) / pages as u32
        })
        .expect("read completed")
}

/// Reads a `pages`-page stream from a server that *prefetches*: the disk
/// streams the next page while the previous reply is in flight (the
/// read-ahead design V file servers used). Returns average time per page.
pub fn measure_read_ahead(params: Params1984, pages: usize) -> Duration {
    use bytes::Bytes;
    use vproto::{fields, Message, RequestCode};

    let domain = vkernel::SimDomain::new(params.clone());
    let (ws, server_machine) = (domain.add_host(), domain.add_host());
    let page = params.disk_page_bytes;
    let disk_latency = params.t_disk_page;
    let server = domain.spawn(server_machine, "prefetch-fs", move |ctx| {
        // The disk streams sequentially: page N is ready at
        // stream_start + N * 15 ms, independent of request arrival.
        let mut stream_start: Option<Duration> = None;
        let mut next_page = 0u32;
        while let Ok(rx) = ctx.receive() {
            let start = *stream_start.get_or_insert_with(|| ctx.now());
            sleep_until(ctx, start + disk_latency * (next_page + 1));
            next_page += 1;
            let mut m = Message::ok();
            m.set_count(fields::W_IO_COUNT, page);
            ctx.reply(rx, m, Bytes::from(vec![0u8; page])).ok();
        }
    });
    domain
        .client(ws, move |ctx| {
            let t0 = ctx.now();
            for _ in 0..pages {
                let mut msg = Message::request(RequestCode::ReadInstance);
                msg.set_count(fields::W_IO_COUNT, page);
                let r = ctx.send(server, msg, Bytes::new(), page).unwrap();
                assert_eq!(r.data.len(), page);
            }
            (ctx.now() - t0) / pages as u32
        })
        .expect("read-ahead run")
}

/// Runs EXP-3.
pub fn run() -> ExpReport {
    let mut rep = ExpReport::new(
        "EXP-3",
        "sequential 512-byte-page file read, 15 ms/page disk (paper §3.1)",
    );
    let per_page = measure_read(Params1984::ethernet_3mbit(), 64);
    rep.push(ExpRow::with_paper(
        "per page, remote server, 3 Mbit",
        17.13,
        ms(per_page),
        "ms",
    ));
    let per_page_10 = measure_read(Params1984::ethernet_10mbit(), 64);
    rep.push(ExpRow::measured_only(
        "per page, remote server, 10 Mbit",
        ms(per_page_10),
        "ms",
    ));
    let ahead = measure_read_ahead(Params1984::ethernet_3mbit(), 64);
    rep.push(ExpRow::measured_only(
        "per page with server read-ahead",
        ms(ahead),
        "ms",
    ));
    rep.push(ExpRow::measured_only("disk floor", 15.0, "ms"));
    rep.note(
        "the paper's 17.13 ms lies between our no-overlap model (full request+reply IPC \
         per page on top of the disk) and the full read-ahead model (disk-bound): the \
         real server overlapped some, not all, of the IPC with the disk",
    );
    rep
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_page_is_disk_dominated_and_near_paper() {
        let rep = run();
        let r = rep.row("per page, remote server, 3 Mbit").unwrap();
        // Disk floor is a hard lower bound; paper says 17.13; our serial
        // model lands within +20%.
        assert!(r.measured >= 15.0, "{}", r.measured);
        assert!(r.deviation_pct().unwrap().abs() < 20.0, "{:?}", r);
    }

    #[test]
    fn paper_value_bracketed_by_serial_and_readahead_models() {
        let serial = ms(measure_read(Params1984::ethernet_3mbit(), 32));
        let ahead = ms(measure_read_ahead(Params1984::ethernet_3mbit(), 32));
        assert!(
            ahead <= 17.13 && 17.13 <= serial,
            "paper 17.13 not bracketed by [{ahead}, {serial}]"
        );
        // Read-ahead is disk-bound: essentially 15 ms/page.
        assert!((ahead - 15.0).abs() < 1.0, "{ahead}");
    }

    #[test]
    fn average_is_independent_of_file_length() {
        let a = measure_read(Params1984::ethernet_3mbit(), 8);
        let b = measure_read(Params1984::ethernet_3mbit(), 32);
        let diff = a.as_nanos().abs_diff(b.as_nanos());
        assert!(diff < 1_000_000, "per-page averages differ: {a:?} vs {b:?}");
    }
}
