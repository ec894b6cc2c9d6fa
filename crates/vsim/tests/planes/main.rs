//! Seed-matrix plane tests: every property here must hold for *any* fault
//! seed, not just the default one.
//!
//! One binary, one suite per module. `scripts/check.sh` runs it once per
//! seed of its matrix (`VSIM_FAULT_SEED=<seed> cargo test -p vsim --test
//! planes`); a bare `cargo test` runs it under [`DEFAULT_SEED`]. The
//! determinism property (equal seeds ⇒ equal event hashes) is what the
//! vcheck gate enforces for the canned experiments.

mod anti_entropy_plane;
mod fault_plane;
mod gossip_plane;
mod merkle_plane;
mod partition_plane;

/// The seed a bare `cargo test` runs under.
const DEFAULT_SEED: u64 = 0xFA17;

/// Parses a seed: decimal or `0x`-hex, surrounding whitespace ignored.
fn parse_seed(s: &str) -> Option<u64> {
    let s = s.trim();
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

/// The seed `VSIM_FAULT_SEED` names, or [`DEFAULT_SEED`] when it is unset.
///
/// # Panics
///
/// If the variable is set but does not parse: a mistyped matrix row must
/// fail, not quietly rerun the default seed.
fn seed_from(var: Option<&str>) -> u64 {
    match var {
        None => DEFAULT_SEED,
        Some(s) => parse_seed(s)
            .unwrap_or_else(|| panic!("VSIM_FAULT_SEED={s:?} is neither decimal nor 0x-hex")),
    }
}

/// The fault seed under test (see [`seed_from`]).
fn seed() -> u64 {
    let var = std::env::var_os("VSIM_FAULT_SEED").map(|s| s.to_string_lossy().into_owned());
    seed_from(var.as_deref())
}

#[test]
fn seed_parser_takes_decimal_hex_and_whitespace() {
    assert_eq!(parse_seed("271828"), Some(271_828));
    assert_eq!(parse_seed("0x1984"), Some(0x1984));
    assert_eq!(parse_seed(" 0xFA17\n"), Some(0xFA17));
    assert_eq!(parse_seed("\t42 "), Some(42));
    assert_eq!(parse_seed("0x1984z"), None);
    assert_eq!(parse_seed(""), None);
    assert_eq!(seed_from(None), DEFAULT_SEED);
    assert_eq!(seed_from(Some("7")), 7);
}

#[test]
#[should_panic(expected = "0x1984z")]
fn an_unparsable_seed_fails_instead_of_running_the_default() {
    seed_from(Some("0x1984z"));
}
