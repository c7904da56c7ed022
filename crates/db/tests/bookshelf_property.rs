//! Randomized property tests on the Bookshelf layer: random designs must
//! survive the write→read round trip with identical semantics, and the
//! parser must reject malformed inputs with positioned errors instead of
//! panicking.
//!
//! Cases are drawn from the workspace's own deterministic PRNG
//! ([`rdp_geom::rng::Rng`]); the `property-tests` feature multiplies the
//! case count for deeper sweeps.

use rdp_db::{bookshelf, DesignBuilder, NodeKind, Placement};
use rdp_geom::rng::Rng;
use rdp_geom::{Orient, Point, Rect};

/// Randomized round-trip cases per run (more with `--features property-tests`).
const CASES: u64 = if cfg!(feature = "property-tests") { 96 } else { 24 };

#[test]
fn random_design_round_trips() {
    for case in 0..CASES {
        let mut rng = Rng::seed_from_u64(0xB00C_5E1F ^ case);
        let n_cells = rng.gen_range(2usize..30);
        let n_macros = rng.gen_range(0usize..4);
        let n_nets = rng.gen_range(1usize..40);
        let mut b = DesignBuilder::new(format!("prop{case}"));
        b.die(Rect::new(0.0, 0.0, 400.0, 200.0));
        for r in 0..20 {
            b.add_row(f64::from(r) * 10.0, 10.0, 1.0, 0.0, 400);
        }
        let mut ids = Vec::new();
        for i in 0..n_cells {
            let w = f64::from(rng.gen_range(1..6));
            ids.push(b.add_node(format!("c{i}"), w, 10.0, NodeKind::Movable).unwrap());
        }
        for i in 0..n_macros {
            ids.push(
                b.add_node(
                    format!("m{i}"),
                    f64::from(rng.gen_range(10..40)),
                    f64::from(rng.gen_range(2..6)) * 10.0,
                    NodeKind::Movable,
                )
                .unwrap(),
            );
        }
        for i in 0..n_nets {
            let net = b.add_net(format!("n{i}"), f64::from(rng.gen_range(1..4)));
            let deg = rng.gen_range(2usize..5).min(ids.len());
            for k in 0..deg {
                let node = ids[(i * 7 + k * 13) % ids.len()];
                b.add_pin(
                    net,
                    node,
                    Point::new(rng.gen_range(-0.5..0.5), rng.gen_range(-0.5..0.5)),
                );
            }
        }
        let design = b.finish().unwrap();
        let mut pl = Placement::new_centered(&design);
        for &id in &ids {
            pl.set_center(
                id,
                Point::new(rng.gen_range(20.0..380.0), rng.gen_range(20.0..180.0)),
            );
            if design.node(id).is_macro() && rng.gen_bool(0.5) {
                pl.set_orient(id, Orient::ALL[rng.gen_range(0usize..8)]);
            }
        }

        let dir = std::env::temp_dir().join(format!("rdp_prop_rt_{case}"));
        bookshelf::write_design(&design, &pl, &dir).unwrap();
        let (d2, pl2) = bookshelf::read_design(dir.join(format!("prop{case}.aux"))).unwrap();
        let _ = std::fs::remove_dir_all(&dir);

        assert_eq!(d2.nodes().len(), design.nodes().len());
        assert_eq!(d2.nets().len(), design.nets().len());
        assert_eq!(d2.pins().len(), design.pins().len());
        let h1 = rdp_db::hpwl::total_hpwl(&design, &pl);
        let h2 = rdp_db::hpwl::total_hpwl(&d2, &pl2);
        assert!((h1 - h2).abs() <= 1e-3 * (1.0 + h1), "case {case}: HPWL {h1} vs {h2}");
        for id in design.node_ids() {
            assert_eq!(pl2.orient(id), pl.orient(id));
        }
    }
}

// --- Malformed-input rejection (failure injection) ---

fn write_benchmark(dir: &std::path::Path, files: &[(&str, &str)]) {
    std::fs::create_dir_all(dir).unwrap();
    for (name, contents) in files {
        std::fs::write(dir.join(name), contents).unwrap();
    }
}

const GOOD_SCL: &str = "UCLA scl 1.0\nNumRows : 1\nCoreRow Horizontal\nCoordinate : 0\nHeight : 10\nSitewidth : 1\nSitespacing : 1\nSubrowOrigin : 0 NumSites : 50\nEnd\n";

#[test]
fn rejects_bad_node_dimensions() {
    let dir = std::env::temp_dir().join("rdp_mal_dim");
    write_benchmark(
        &dir,
        &[
            ("x.aux", "RowBasedPlacement : x.nodes x.nets x.pl x.scl\n"),
            ("x.nodes", "UCLA nodes 1.0\na -3 10\n"),
            ("x.nets", "UCLA nets 1.0\n"),
            ("x.pl", "UCLA pl 1.0\n"),
            ("x.scl", GOOD_SCL),
        ],
    );
    let err = bookshelf::read_design(dir.join("x.aux")).unwrap_err();
    assert!(err.to_string().contains("invalid dimensions"), "got: {err}");
}

#[test]
fn rejects_unknown_node_flag() {
    let dir = std::env::temp_dir().join("rdp_mal_flag");
    write_benchmark(
        &dir,
        &[
            ("x.aux", "RowBasedPlacement : x.nodes x.nets x.pl x.scl\n"),
            ("x.nodes", "UCLA nodes 1.0\na 3 10 wobbly\n"),
            ("x.nets", "UCLA nets 1.0\n"),
            ("x.pl", "UCLA pl 1.0\n"),
            ("x.scl", GOOD_SCL),
        ],
    );
    let err = bookshelf::read_design(dir.join("x.aux")).unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("unknown node flag") && msg.contains("x.nodes:2"), "got: {msg}");
}

#[test]
fn rejects_truncated_net() {
    let dir = std::env::temp_dir().join("rdp_mal_trunc");
    write_benchmark(
        &dir,
        &[
            ("x.aux", "RowBasedPlacement : x.nodes x.nets x.pl x.scl\n"),
            ("x.nodes", "UCLA nodes 1.0\na 3 10\nb 3 10\n"),
            ("x.nets", "UCLA nets 1.0\nNetDegree : 3 n0\na B : 0 0\nb B : 0 0\n"),
            ("x.pl", "UCLA pl 1.0\n"),
            ("x.scl", GOOD_SCL),
        ],
    );
    let err = bookshelf::read_design(dir.join("x.aux")).unwrap_err();
    assert!(err.to_string().contains("truncated"), "got: {err}");
}

#[test]
fn rejects_incomplete_core_row() {
    let dir = std::env::temp_dir().join("rdp_mal_row");
    write_benchmark(
        &dir,
        &[
            ("x.aux", "RowBasedPlacement : x.nodes x.nets x.pl x.scl\n"),
            ("x.nodes", "UCLA nodes 1.0\na 3 10\nb 3 10\n"),
            ("x.nets", "UCLA nets 1.0\nNetDegree : 2 n0\na B : 0 0\nb B : 0 0\n"),
            ("x.pl", "UCLA pl 1.0\n"),
            ("x.scl", "UCLA scl 1.0\nCoreRow Horizontal\nCoordinate : 0\nEnd\n"),
        ],
    );
    let err = bookshelf::read_design(dir.join("x.aux")).unwrap_err();
    assert!(err.to_string().contains("CoreRow missing"), "got: {err}");
}

#[test]
fn rejects_bad_orientation_in_pl() {
    let dir = std::env::temp_dir().join("rdp_mal_orient");
    write_benchmark(
        &dir,
        &[
            ("x.aux", "RowBasedPlacement : x.nodes x.nets x.pl x.scl\n"),
            ("x.nodes", "UCLA nodes 1.0\na 3 10\nb 3 10\n"),
            ("x.nets", "UCLA nets 1.0\nNetDegree : 2 n0\na B : 0 0\nb B : 0 0\n"),
            ("x.pl", "UCLA pl 1.0\na 0 0 : Q7\n"),
            ("x.scl", GOOD_SCL),
        ],
    );
    let err = bookshelf::read_design(dir.join("x.aux")).unwrap_err();
    assert!(err.to_string().contains("invalid orientation"), "got: {err}");
}

#[test]
fn rejects_route_without_grid() {
    let dir = std::env::temp_dir().join("rdp_mal_route");
    write_benchmark(
        &dir,
        &[
            ("x.aux", "RowBasedPlacement : x.nodes x.nets x.pl x.scl x.route\n"),
            ("x.nodes", "UCLA nodes 1.0\na 3 10\nb 3 10\n"),
            ("x.nets", "UCLA nets 1.0\nNetDegree : 2 n0\na B : 0 0\nb B : 0 0\n"),
            ("x.pl", "UCLA pl 1.0\n"),
            ("x.scl", GOOD_SCL),
            ("x.route", "route 1.0\nTileSize : 10 10\n"),
        ],
    );
    let err = bookshelf::read_design(dir.join("x.aux")).unwrap_err();
    assert!(err.to_string().contains("missing Grid"), "got: {err}");
}

/// A small but feature-complete benchmark (terminal, weights-free nets,
/// fixed node, full `.route` record) used as the seed for mutation fuzzing.
const FUZZ_FILES: &[(&str, &str)] = &[
    ("f.aux", "RowBasedPlacement : f.nodes f.nets f.pl f.scl f.route\n"),
    (
        "f.nodes",
        "UCLA nodes 1.0\na 3 10\nb 4 10\nc 5 10\nt 2 2 terminal\n",
    ),
    (
        "f.nets",
        "UCLA nets 1.0\nNetDegree : 2 n0\na B : 0 0\nb B : 0 0\nNetDegree : 3 n1\nb B : 0.5 0\nc B : 0 0\nt B : 0 0\n",
    ),
    (
        "f.pl",
        "UCLA pl 1.0\na 1 0 : N\nb 5 0 : N\nc 10 0 : N\nt 40 0 : N /FIXED\n",
    ),
    ("f.scl", GOOD_SCL),
    (
        "f.route",
        "route 1.0\nGrid : 5 5 2\nVerticalCapacity : 0 10\nHorizontalCapacity : 10 0\nMinWireWidth : 1 1\nMinWireSpacing : 1 1\nViaSpacing : 0 0\nGridOrigin : 0 0\nTileSize : 10 10\nBlockagePorosity : 0\nNumNiTerminals : 0\nNumBlockageNodes : 0\n",
    ),
];

/// Poison tokens spliced over random lines: non-finite literals, overflowing
/// exponents, structural keywords out of place, and plain junk.
const GARBLE: &[&str] = &[
    "nan",
    "NaN nan nan",
    "-1e999",
    "1e999 -1e999 inf",
    "inf -inf",
    "NetDegree : 999999 zz",
    "CoreRow Horizontal",
    "End",
    "Grid : -1 -1 -1",
    ": : :",
    "a b c d e f g h",
    "-",
    "\u{1}\u{2}\u{3}",
];

/// Feeds randomly truncated and garbled benchmark text to `read_design`.
/// Every outcome must be `Ok` or a structured `BookshelfError`/`BuildError`
/// — the parser must never panic, whatever the mutation. (A panic anywhere
/// in this loop fails the test; seeds are deterministic, so any failure
/// reproduces exactly.)
#[test]
fn mutated_benchmarks_never_panic() {
    let dir = std::env::temp_dir().join("rdp_prop_fuzz");
    for case in 0..CASES {
        let mut rng = Rng::seed_from_u64(0xFA2E_D00D ^ (case * 0x9E37));
        // Mutate one file per sub-case; sweep all files each case.
        for victim in 0..FUZZ_FILES.len() {
            let mut files: Vec<(String, Vec<u8>)> = FUZZ_FILES
                .iter()
                .map(|(n, c)| ((*n).to_owned(), c.as_bytes().to_vec()))
                .collect();
            let content = &mut files[victim].1;
            match rng.gen_range(0u32..4) {
                // Truncate at a random byte offset (ASCII, so always valid UTF-8).
                0 => {
                    let at = rng.gen_range(0usize..content.len().max(1));
                    content.truncate(at);
                }
                // Replace a random line with a poison token.
                1 => {
                    let text = String::from_utf8(content.clone()).unwrap();
                    let mut lines: Vec<&str> = text.lines().collect();
                    if !lines.is_empty() {
                        let at = rng.gen_range(0usize..lines.len());
                        lines[at] = GARBLE[rng.gen_range(0usize..GARBLE.len())];
                    }
                    *content = lines.join("\n").into_bytes();
                }
                // Splice a poison token mid-file without removing anything.
                2 => {
                    let tok = GARBLE[rng.gen_range(0usize..GARBLE.len())];
                    let at = rng.gen_range(0usize..content.len().max(1));
                    content.splice(at..at, tok.bytes());
                }
                // Corrupt a byte to a non-UTF-8 value.
                _ => {
                    if !content.is_empty() {
                        let at = rng.gen_range(0usize..content.len());
                        content[at] = 0xFF;
                    }
                }
            }
            std::fs::create_dir_all(&dir).unwrap();
            for (name, bytes) in &files {
                std::fs::write(dir.join(name), bytes).unwrap();
            }
            // Ok or Err both fine; panicking is the only failure mode.
            let _ = bookshelf::read_design(dir.join("f.aux"));
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fuzz_seed_benchmark_is_valid() {
    // The mutation fuzzer is only meaningful if the unmutated seed parses.
    let dir = std::env::temp_dir().join("rdp_prop_fuzz_seed");
    write_benchmark(
        &dir,
        &FUZZ_FILES.iter().map(|&(n, c)| (n, c)).collect::<Vec<_>>(),
    );
    let (d, _pl) = bookshelf::read_design(dir.join("f.aux")).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(d.nodes().len(), 4);
    assert_eq!(d.nets().len(), 2);
    assert!(d.route_spec().is_some());
}

#[test]
fn rejects_region_with_unknown_member() {
    let dir = std::env::temp_dir().join("rdp_mal_region");
    write_benchmark(
        &dir,
        &[
            ("x.aux", "RowBasedPlacement : x.nodes x.nets x.pl x.scl x.regions\n"),
            ("x.nodes", "UCLA nodes 1.0\na 3 10\nb 3 10\n"),
            ("x.nets", "UCLA nets 1.0\nNetDegree : 2 n0\na B : 0 0\nb B : 0 0\n"),
            ("x.pl", "UCLA pl 1.0\n"),
            ("x.scl", GOOD_SCL),
            ("x.regions", "rdp regions 1.0\nRegion : R\nRect : 0 0 10 10\nMember : GHOST\nEnd\n"),
        ],
    );
    let err = bookshelf::read_design(dir.join("x.aux")).unwrap_err();
    assert!(err.to_string().contains("GHOST"), "got: {err}");
}

/// A count read from the file bounds its loop but never sizes an
/// allocation: a huge `.shapes` part count or `.route` blockage layer
/// count is a structured parse error, not an allocation abort.
#[test]
fn huge_counts_are_parse_errors() {
    let route = "route 1.0\nGrid : 5 5 2\nVerticalCapacity : 0 10\nHorizontalCapacity : 10 0\nTileSize : 10 10\nNumBlockageNodes : 1\na COUNT 1\n";
    let shapes = "shapes 1.0\nNumNonRectangularNodes : 1\na : COUNT\n\tShape_0 0 0 1 1\n";
    for (member, text) in [("x.route", route), ("x.shapes", shapes)] {
        for count in ["1099511627776", "18446744073709551615"] {
            let dir = std::env::temp_dir().join("rdp_mal_count");
            write_benchmark(
                &dir,
                &[
                    ("x.aux", &format!("RowBasedPlacement : x.nodes x.nets x.pl x.scl {member}\n")),
                    ("x.nodes", "UCLA nodes 1.0\na 3 10\nb 3 10\n"),
                    ("x.nets", "UCLA nets 1.0\nNetDegree : 2 n0\na B : 0 0\nb B : 0 0\n"),
                    ("x.pl", "UCLA pl 1.0\n"),
                    ("x.scl", GOOD_SCL),
                    (member, &text.replace("COUNT", count)),
                ],
            );
            let err = bookshelf::read_design(dir.join("x.aux")).unwrap_err();
            let _ = std::fs::remove_dir_all(&dir);
            assert!(
                matches!(err, bookshelf::BookshelfError::Parse { .. }),
                "{member} count {count}: {err}"
            );
        }
    }
}
