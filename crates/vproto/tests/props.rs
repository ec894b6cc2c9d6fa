//! Property-based tests for the wire-level types (FIG-2 and FIG-3 of the
//! experiment index in DESIGN.md), and the totality of every decoder over
//! bytes from outside the program.

use proptest::prelude::*;
use vnaming::CsRequest;
use vproto::{
    ContextId, ContextPair, CsName, DescriptorExt, DescriptorTag, Message, ObjectDescriptor,
    ObjectId, Permissions, Pid, ResolveBatchMsg, ResolveBatchReply, SyncDeltaMsg, SyncDigestMsg,
    SyncLeafDigest, SyncNodeRec, SyncProbeMsg, SyncProbeReply, SyncStatusRec, WireReader,
    WireWriter,
};

/// Runs every public decoder and parser over `bytes`: each may refuse, none
/// may panic.
fn decode_all(bytes: &[u8]) {
    let _ = SyncDigestMsg::decode(bytes);
    let _ = SyncDeltaMsg::decode(bytes);
    let _ = SyncProbeMsg::decode(bytes);
    let _ = SyncProbeReply::decode(bytes);
    let _ = SyncStatusRec::decode(bytes);
    let _ = ResolveBatchMsg::decode(bytes);
    let _ = ResolveBatchMsg::decode_names(bytes);
    let _ = ResolveBatchReply::decode(bytes);
    let _ = ObjectDescriptor::decode_one(bytes);
    let _ = ObjectDescriptor::decode_from(&mut WireReader::new(bytes));
    let _ = ObjectDescriptor::decode_directory(bytes);
    let _ = CsName::from(bytes.to_vec()).parse_prefix();
}

/// One `count.min(1024)` allocation clamp: a payload that decodes whole,
/// whose 32-bit count at byte `at` is 0 and read by that clamp.
struct Clamp {
    decode: fn(&[u8]) -> bool,
    zero: Vec<u8>,
    at: usize,
}

fn clamp(decode: fn(&[u8]) -> bool, zero: Vec<u8>, at: usize) -> Clamp {
    Clamp { decode, zero, at }
}

/// Every clamp site in `sync` and `batch`, in source order.
fn clamps() -> Vec<Clamp> {
    let one_leaf = SyncProbeMsg {
        leaves: vec![SyncLeafDigest {
            node: 0,
            entries: Vec::new(),
        }],
        ..SyncProbeMsg::default()
    };
    let one_node = SyncProbeReply {
        nodes: vec![SyncNodeRec {
            node: 0,
            children: Vec::new(),
        }],
        ..SyncProbeReply::default()
    };
    let probe = SyncProbeMsg::default().encode();
    let probe_reply = SyncProbeReply::default().encode();
    vec![
        clamp(
            |b| SyncDigestMsg::decode(b).is_ok(),
            SyncDigestMsg::default().encode(),
            8,
        ),
        clamp(
            |b| SyncDeltaMsg::decode(b).is_ok(),
            SyncDeltaMsg::default().encode(),
            16,
        ),
        clamp(|b| SyncProbeMsg::decode(b).is_ok(), probe.clone(), 8),
        clamp(|b| SyncProbeMsg::decode(b).is_ok(), probe, 12),
        clamp(|b| SyncProbeMsg::decode(b).is_ok(), one_leaf.encode(), 20),
        clamp(
            |b| SyncProbeReply::decode(b).is_ok(),
            probe_reply.clone(),
            24,
        ),
        clamp(|b| SyncProbeReply::decode(b).is_ok(), one_node.encode(), 32),
        clamp(|b| SyncProbeReply::decode(b).is_ok(), probe_reply, 28),
        clamp(
            |b| ResolveBatchMsg::decode(b).is_ok(),
            ResolveBatchMsg::default().encode(),
            0,
        ),
        clamp(
            |b| ResolveBatchMsg::decode_names(b).is_ok(),
            ResolveBatchMsg::default().encode(),
            0,
        ),
        clamp(
            |b| ResolveBatchReply::decode(b).is_ok(),
            ResolveBatchReply::default().encode(),
            0,
        ),
    ]
}

/// `zero` with `count` written at byte `at` and `tail` appended.
fn with_count(c: &Clamp, count: u32, tail: &[u8]) -> Vec<u8> {
    let mut bytes = c.zero.clone();
    bytes[c.at..c.at + 4].copy_from_slice(&count.to_le_bytes());
    bytes.extend_from_slice(tail);
    bytes
}

#[test]
fn every_clamp_site_is_reached_by_its_count() {
    // The zero payload decodes whole, so every byte before `at` is a valid
    // header and the decoder reads the count at `at`; a nonzero count there
    // changes the outcome, so it is that clamp that read it.
    let sites = clamps();
    assert_eq!(sites.len(), 11, "one case per `count.min(1024)` site");
    for (i, c) in sites.iter().enumerate() {
        assert_eq!(&c.zero[c.at..c.at + 4], &[0; 4], "site {i}");
        assert!((c.decode)(&c.zero), "site {i}: the zero payload decodes");
        for hostile in [1, 1025, u32::MAX] {
            assert!(!(c.decode)(&with_count(c, hostile, &[])), "site {i}");
        }
    }
}

/// `ResolveBatch` names: mostly short, sometimes at or past the 0xFFFF
/// length that takes the long-length escape.
fn arb_batch_names() -> impl Strategy<Value = Vec<Vec<u8>>> {
    let long = (0xFFFEusize..0x1_0002).prop_map(|len| vec![b'x'; len]);
    let short = || proptest::collection::vec(any::<u8>(), 0..40);
    let name = prop_oneof![short(), short(), short(), long];
    proptest::collection::vec(name, 0..6)
}

fn arb_csname() -> impl Strategy<Value = CsName> {
    proptest::collection::vec(any::<u8>(), 0..64).prop_map(CsName::from)
}

fn arb_ext() -> impl Strategy<Value = (u16, DescriptorExt)> {
    prop_oneof![
        Just((DescriptorTag::File.as_u16(), DescriptorExt::None)),
        (any::<u32>(), any::<u32>()).prop_map(|(c, e)| (
            DescriptorTag::Directory.as_u16(),
            DescriptorExt::Directory {
                context: ContextId::new(c),
                entries: e,
            }
        )),
        (any::<u32>(), any::<u32>(), any::<u32>()).prop_map(|(p, c, l)| (
            DescriptorTag::ContextPrefix.as_u16(),
            DescriptorExt::ContextPrefix {
                target: ContextPair::new(Pid::from_raw(p), ContextId::new(c)),
                logical_service: l,
            }
        )),
        (any::<u16>(), any::<u16>()).prop_map(|(c, r)| (
            DescriptorTag::Terminal.as_u16(),
            DescriptorExt::Terminal {
                columns: c,
                rows: r
            }
        )),
        any::<u32>().prop_map(|q| (
            DescriptorTag::PrintJob.as_u16(),
            DescriptorExt::PrintJob { queue_position: q }
        )),
        any::<u32>().prop_map(|p| (
            DescriptorTag::Program.as_u16(),
            DescriptorExt::Program {
                pid: Pid::from_raw(p)
            }
        )),
        (any::<u32>(), any::<u16>(), any::<u16>()).prop_map(|(h, p, s)| (
            DescriptorTag::TcpConnection.as_u16(),
            DescriptorExt::TcpConnection {
                remote_host: h,
                remote_port: p,
                state: s,
            }
        )),
        any::<u32>().prop_map(|u| (
            DescriptorTag::Mailbox.as_u16(),
            DescriptorExt::Mailbox { unread: u }
        )),
    ]
}

fn arb_descriptor() -> impl Strategy<Value = ObjectDescriptor> {
    (
        arb_ext(),
        arb_csname(),
        arb_csname(),
        any::<u32>(),
        any::<u64>(),
        any::<u64>(),
        any::<u16>(),
    )
        .prop_map(
            |((tag_raw, ext), name, owner, oid, size, modified, perms)| ObjectDescriptor {
                tag_raw,
                name,
                owner,
                object_id: ObjectId(oid),
                size,
                modified,
                permissions: Permissions(perms),
                ext,
            },
        )
}

proptest! {
    /// FIG-2: pid subfield split/join is lossless for every 32-bit value.
    #[test]
    fn pid_split_join_roundtrip(raw in any::<u32>()) {
        let pid = Pid::from_raw(raw);
        let rebuilt = Pid::new(pid.logical_host(), pid.local_pid());
        prop_assert_eq!(rebuilt, pid);
        prop_assert_eq!(rebuilt.raw(), raw);
    }

    /// FIG-2: two pids are equal iff both subfields are equal.
    #[test]
    fn pid_equality_is_subfield_equality(a in any::<u32>(), b in any::<u32>()) {
        let (pa, pb) = (Pid::from_raw(a), Pid::from_raw(b));
        let same_fields = pa.logical_host() == pb.logical_host()
            && pa.local_pid() == pb.local_pid();
        prop_assert_eq!(pa == pb, same_fields);
    }

    /// Message 32-byte wire encoding is lossless.
    #[test]
    fn message_bytes_roundtrip(words in proptest::collection::vec(any::<u16>(), 16)) {
        let mut m = Message::new();
        for (i, w) in words.iter().enumerate() {
            m.set_word(i, *w);
        }
        prop_assert_eq!(Message::from_bytes(&m.to_bytes()), m);
    }

    /// FIG-3: descriptor records roundtrip for every tag and field content.
    #[test]
    fn descriptor_roundtrip(d in arb_descriptor()) {
        let back = ObjectDescriptor::decode_one(&d.encode()).unwrap();
        prop_assert_eq!(back, d);
    }

    /// FIG-3: a directory stream of arbitrary records decodes to the same
    /// sequence — the context-directory invariant of paper §5.6.
    #[test]
    fn directory_stream_roundtrip(ds in proptest::collection::vec(arb_descriptor(), 0..8)) {
        let mut w = WireWriter::new();
        for d in &ds {
            d.encode_into(&mut w);
        }
        let decoded = ObjectDescriptor::decode_directory(&w.into_vec()).unwrap();
        prop_assert_eq!(decoded, ds);
    }

    /// Prefix parsing: for any prefix body without ']' and any rest, the
    /// composed name parses back to exactly that prefix and rest index.
    #[test]
    fn prefix_parse_inverts_composition(
        prefix in proptest::collection::vec(any::<u8>().prop_filter("no ]", |b| *b != b']'), 0..16),
        rest in proptest::collection::vec(any::<u8>(), 0..16),
    ) {
        let mut composed = vec![b'['];
        composed.extend_from_slice(&prefix);
        composed.push(b']');
        composed.extend_from_slice(&rest);
        let name = CsName::from(composed);
        let parse = name.parse_prefix().expect("composed prefix parses");
        prop_assert_eq!(parse.prefix, &prefix[..]);
        prop_assert_eq!(name.suffix(parse.rest_index), &rest[..]);
    }

    /// Arbitrary bytes: every decoder refuses or decodes, none panics.
    #[test]
    fn decoders_are_total_over_arbitrary_bytes(
        bytes in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        decode_all(&bytes);
    }

    /// The borrowed `ResolveBatch` decoder refuses exactly what the owned
    /// one refuses, and otherwise yields the same names.
    #[test]
    fn borrowed_batch_decode_matches_owned(
        bytes in prop_oneof![
            proptest::collection::vec(any::<u8>(), 0..256),
            arb_batch_names().prop_map(|names| ResolveBatchMsg { names }.encode()),
        ],
        cut in any::<usize>(),
    ) {
        for bytes in [&bytes[..], &bytes[..cut % (bytes.len() + 1)]] {
            match (ResolveBatchMsg::decode(bytes), ResolveBatchMsg::decode_names(bytes)) {
                (Ok(owned), Ok(borrowed)) => prop_assert_eq!(owned.names, borrowed),
                (Err(_), Err(_)) => {}
                (owned, borrowed) => prop_assert!(false, "{owned:?} vs {borrowed:?}"),
            }
        }
    }

    /// Encoding borrowed names gives the owned encoder's bytes, long-length
    /// escapes included.
    #[test]
    fn borrowed_batch_encode_matches_owned(names in arb_batch_names()) {
        let borrowed = ResolveBatchMsg::encode_names(names.iter().map(Vec::as_slice));
        prop_assert_eq!(&borrowed, &ResolveBatchMsg { names }.encode());
    }

    /// A well-formed header with a hostile 32-bit count at each clamp
    /// site, followed by arbitrary bytes: no panic, and no allocation sized
    /// by the count (a count of 2³² would abort the test).
    #[test]
    fn hostile_counts_reach_the_clamps_without_panicking(
        site in 0usize..11,
        count in prop_oneof![Just(u32::MAX), 1025u32..=u32::MAX, 0u32..1025],
        tail in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let sites = clamps();
        let bytes = with_count(&sites[site], count, &tail);
        let _ = (sites[site].decode)(&bytes);
        decode_all(&bytes);
    }

    /// `CsRequest::parse` over arbitrary message words and payloads —
    /// mostly arbitrary name fields, sometimes small ones that point into
    /// the payload — refuses or yields an index inside its name.
    #[test]
    fn csname_parse_is_total(
        words in proptest::collection::vec(any::<u16>(), 16),
        (small, len, index) in (any::<bool>(), 0u16..80, 0u16..80),
        payload in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let mut msg = Message::new();
        for (i, w) in words.iter().enumerate() {
            msg.set_word(i, *w);
        }
        if small {
            msg.set_name_length(len).set_name_index(index);
        }
        if let Ok(req) = CsRequest::parse(&msg, &payload) {
            prop_assert!(req.index <= req.name.len());
            prop_assert_eq!(req.name.len() + req.extra.len(), payload.len());
            let _ = req.remaining();
        }
    }

    /// Truncating an encoded descriptor anywhere strictly inside it never
    /// panics and always errors.
    #[test]
    fn truncated_descriptor_errors(d in arb_descriptor(), frac in 0.0f64..1.0) {
        let bytes = d.encode();
        let cut = ((bytes.len() as f64) * frac) as usize;
        if cut < bytes.len() {
            prop_assert!(ObjectDescriptor::decode_one(&bytes[..cut]).is_err());
        }
    }
}
