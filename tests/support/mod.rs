//! The seeded random query generator the property suites share
//! (`proptest_equivalence`, `analyze_property`, `sat_property`). The build
//! has no network access, so instead of the `proptest` crate each suite
//! draws from this weighted grammar with its own `SplitMix64` seeds; every
//! case is deterministic and replayable. The suites differ only in the
//! `literals` a text comparison draws from.

use xpath2sql::xml::rng::SplitMix64;
use xpath2sql::xpath::{Path, Qual};

/// Random path expression over a fixed label alphabet (including labels the
/// DTD does not declare, exercising the ∅ folding). Mirrors the original
/// `prop_oneof!` weights: leaves are 4:1:1 label/wildcard/empty; inner nodes
/// are 3:2:1:1 seq/descendant/union/qualified (with 2 extra leaf weights so
/// expressions stay small, as `prop_recursive`'s size budget did).
pub fn arb_path(rng: &mut SplitMix64, labels: &[&str], literals: &[&str], depth: u32) -> Path {
    if depth == 0 {
        return arb_leaf(rng, labels);
    }
    match rng.gen_range(0..9) {
        0..=2 => Path::Seq(
            Box::new(arb_path(rng, labels, literals, depth - 1)),
            Box::new(arb_path(rng, labels, literals, depth - 1)),
        ),
        3..=4 => Path::Descendant(Box::new(arb_path(rng, labels, literals, depth - 1))),
        5 => Path::Union(
            Box::new(arb_path(rng, labels, literals, depth - 1)),
            Box::new(arb_path(rng, labels, literals, depth - 1)),
        ),
        6 => {
            let p = arb_path(rng, labels, literals, depth - 1);
            let q = arb_qual(rng, labels, literals, depth - 1, 2);
            Path::Qualified(Box::new(p), q)
        }
        _ => arb_leaf(rng, labels),
    }
}

fn arb_leaf(rng: &mut SplitMix64, labels: &[&str]) -> Path {
    match rng.gen_range(0..6) {
        0..=3 => Path::label(labels[rng.gen_range(0..labels.len())]),
        4 => Path::Wildcard,
        _ => Path::Empty,
    }
}

/// Random qualifier: 4:1 path-existence vs text comparison against one of
/// `literals` at the leaves, with up to `qdepth` boolean connectives
/// (2:1:1 not/and/or) above them.
fn arb_qual(
    rng: &mut SplitMix64,
    labels: &[&str],
    literals: &[&str],
    depth: u32,
    qdepth: u32,
) -> Qual {
    if qdepth > 0 && rng.gen_bool(0.4) {
        let sub = |rng: &mut SplitMix64| arb_qual(rng, labels, literals, depth, qdepth - 1);
        return match rng.gen_range(0..4) {
            0..=1 => Qual::not(sub(rng)),
            2 => sub(rng).and(sub(rng)),
            _ => sub(rng).or(sub(rng)),
        };
    }
    if rng.gen_range(0..5) < 4 {
        Qual::path(arb_path(rng, labels, literals, depth.min(2)))
    } else {
        Qual::TextEq(literals[rng.gen_range(0..literals.len())].into())
    }
}

/// Distinct query-generator seed per (property, document seed, case index).
#[allow(dead_code)] // `analyze_property` seeds its cases its own way
pub fn case_rng(property: u64, seed: u64, case: usize) -> SplitMix64 {
    SplitMix64::seed_from_u64(
        property
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(seed.wrapping_mul(1 << 20))
            .wrapping_add(case as u64),
    )
}
