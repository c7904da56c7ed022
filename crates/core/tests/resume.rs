//! Checkpoint-resume determinism (ISSUE 9).
//!
//! The serve layer's restart story rests on one contract: resuming a flow
//! from any stage checkpoint — at any thread count, through the text
//! serialization — produces a final placement **bitwise identical** to the
//! uninterrupted run. These tests pin that contract in estimator-congestion
//! mode (the router-congestion mode carries non-checkpointed warm routing
//! state and is documented as resume-approximate), plus the sequence of
//! checkpoints, stage timings and events the stage driver produces.

use rdp_core::{FlowCheckpoint, FlowProgress, PlaceError, PlaceOptions, Placer};
use rdp_db::Placement;
use rdp_gen::{generate, GeneratedBench, GeneratorConfig};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

fn bench(name: &str, seed: u64) -> GeneratedBench {
    generate(&GeneratorConfig::tiny(name, seed)).unwrap()
}

/// Bit-exact fingerprint of a placement: position bits + orientation per
/// node, in node order.
type Bits = Vec<(u64, u64, &'static str)>;

fn placement_bits(b: &GeneratedBench, p: &Placement) -> Bits {
    b.design
        .node_ids()
        .map(|id| {
            let c = p.center(id);
            (c.x.to_bits(), c.y.to_bits(), p.orient(id).as_str())
        })
        .collect()
}

/// One uninterrupted run that also records every checkpoint it saves.
fn baseline_with_checkpoints(
    b: &GeneratedBench,
    opts: PlaceOptions,
) -> (Bits, u64, Vec<FlowCheckpoint>) {
    let mut cps: Vec<FlowCheckpoint> = Vec::new();
    let result = Placer::new(&b.design, opts)
        .with_initial(b.placement.clone())
        .with_checkpoint_sink(|cp| cps.push(cp.clone()))
        .run()
        .unwrap();
    (placement_bits(b, &result.placement), result.hpwl.to_bits(), cps)
}

#[test]
fn resume_from_each_stage_checkpoint_matches_uninterrupted_bitwise() {
    let b = bench("rsm", 71);
    let (base_bits, base_hpwl, cps) = baseline_with_checkpoints(&b, PlaceOptions::fast());
    // The fast flow saves at least global_place + one inflate + legalize.
    assert!(cps.len() >= 3, "expected >= 3 checkpoints, got {}", cps.len());
    assert!(cps.iter().any(|cp| cp.stage == "global_place"));
    assert!(cps.iter().any(|cp| cp.legal), "legalize checkpoint missing");

    for cp in &cps {
        for threads in [1usize, 2, 8] {
            // Resume through the text round-trip, exactly as a restarted
            // server would.
            let restored = FlowCheckpoint::from_text(&cp.to_text()).unwrap();
            let resumed = Placer::new(&b.design, PlaceOptions::fast().with_threads(threads))
                .resume_from(restored)
                .run()
                .unwrap();
            assert_eq!(
                resumed.hpwl.to_bits(),
                base_hpwl,
                "hpwl mismatch resuming from `{}` at {} threads",
                cp.stage,
                threads
            );
            assert_eq!(
                placement_bits(&b, &resumed.placement),
                base_bits,
                "placement mismatch resuming from `{}` at {} threads",
                cp.stage,
                threads
            );
        }
    }
}

#[test]
fn cancel_interrupts_at_stage_boundary_and_resume_completes_identically() {
    let b = bench("rsc", 72);
    let (base_bits, base_hpwl, _) = baseline_with_checkpoints(&b, PlaceOptions::fast());

    // A pre-fired token stops the flow at the first stage boundary.
    let token = Arc::new(AtomicBool::new(true));
    let progress = Placer::new(&b.design, PlaceOptions::fast())
        .with_initial(b.placement.clone())
        .with_cancel(Arc::clone(&token))
        .run_resumable()
        .unwrap();
    let FlowProgress::Interrupted(cp) = progress else {
        panic!("pre-fired cancel token must interrupt the flow");
    };
    assert_eq!(cp.stage, "global_place");

    // `run()` surfaces the same situation as a structured error.
    let err = Placer::new(&b.design, PlaceOptions::fast())
        .with_initial(b.placement.clone())
        .with_cancel(token)
        .run()
        .unwrap_err();
    assert!(matches!(err, PlaceError::Interrupted { ref stage } if stage == "global_place"));

    // Resuming the interrupted run lands on the uninterrupted result.
    let resumed = Placer::new(&b.design, PlaceOptions::fast())
        .resume_from(cp)
        .run()
        .unwrap();
    assert_eq!(resumed.hpwl.to_bits(), base_hpwl);
    assert_eq!(placement_bits(&b, &resumed.placement), base_bits);
}

#[test]
fn resume_from_legal_checkpoint_skips_straight_to_polish() {
    let b = bench("rsl", 73);
    let (base_bits, _, cps) = baseline_with_checkpoints(&b, PlaceOptions::fast());
    let legal = cps.iter().find(|cp| cp.legal).expect("legalize checkpoint");
    let resumed = Placer::new(&b.design, PlaceOptions::fast())
        .resume_from(legal.clone())
        .run()
        .unwrap();
    assert_eq!(placement_bits(&b, &resumed.placement), base_bits);
    // Legalization was not re-run: its stats are the documented zeros and
    // no legalize stage timing is recorded.
    assert_eq!(resumed.legalize.failed, 0);
    assert!(!resumed.trace.stages.iter().any(|s| s.stage == "legalize"));
}

#[test]
fn mismatched_checkpoint_is_rejected_structurally() {
    let b = bench("rsx", 74);
    let mut other_cfg = GeneratorConfig::tiny("rsy", 75);
    other_cfg.num_cells = 300; // different node count than `b`
    let other = generate(&other_cfg).unwrap();
    let (_, _, cps) = baseline_with_checkpoints(&other, PlaceOptions::fast());
    let foreign = cps.last().unwrap().clone();
    // The two tiny designs have different node counts, so the checkpoint
    // must be rejected before any stage runs.
    let err = Placer::new(&b.design, PlaceOptions::fast())
        .resume_from(foreign)
        .run()
        .unwrap_err();
    match err {
        PlaceError::BadResume { reason } => {
            assert!(!reason.is_empty());
        }
        other => panic!("expected BadResume, got {other:?}"),
    }
}

/// What one run leaves behind, in order: the stages its checkpoint sink
/// sees, the names of its `trace.stages` rows and the kinds of its
/// recovery events.
fn stage_sequence(b: &GeneratedBench, opts: PlaceOptions) -> [Vec<String>; 3] {
    let mut sunk: Vec<String> = Vec::new();
    let result = Placer::new(&b.design, opts)
        .with_initial(b.placement.clone())
        .with_checkpoint_sink(|cp| sunk.push(cp.stage.clone()))
        .run()
        .unwrap();
    let stages = result.trace.stages.iter().map(|s| s.stage.clone()).collect();
    let kinds = result.trace.events.iter().map(|e| e.kind().to_owned()).collect();
    [sunk, stages, kinds]
}

#[test]
fn stage_sequence_is_pinned_per_configuration() {
    let b = bench("rsq", 76);
    let owned = |names: &[&str]| names.iter().map(|&n| n.to_owned()).collect::<Vec<_>>();
    let saved = "recovery/checkpoint_saved";
    let rounds = [
        "gp/inflate0/grad_kernel",
        saved,
        "gp/inflate1/grad_kernel",
        saved,
        "routability",
    ];
    let tail = ["legalize", saved, "detailed"];
    let gp = ["gp/final/grad_kernel", "global_place", "gp/rotation/grad_kernel", "macro_rotation", saved];
    let clean = [
        owned(&["global_place", "inflate0", "inflate1", "legalize"]),
        owned(&[&gp[..], &rounds, &tail].concat()),
        owned(&["checkpoint_saved"; 4]),
    ];
    let multilevel = [
        clean[0].clone(),
        owned(
            &[&["gp/level2/grad_kernel", "gp/level1/grad_kernel", "gp/level0/grad_kernel"], &gp[..], &rounds, &tail]
                .concat(),
        ),
        clean[2].clone(),
    ];
    let truncated = [
        owned(&["global_place", "legalize"]),
        owned(&[&gp[..], &["recovery/budget_truncated", "routability"], &tail].concat()),
        owned(&["checkpoint_saved", "budget_truncated", "checkpoint_saved"]),
    ];

    let mut no_inflation_time = PlaceOptions::fast();
    no_inflation_time.budget.inflation_wall = Some(std::time::Duration::ZERO);
    for (label, opts, expected) in [
        ("fast", PlaceOptions::fast(), &clean),
        ("router", PlaceOptions::fast().with_router_congestion(), &clean),
        ("auto", PlaceOptions::fast().with_estimator(rdp_core::CongestionSchedule::auto()), &clean),
        ("zero inflation_wall", no_inflation_time, &truncated),
        ("multilevel", PlaceOptions { cluster_limit: 150, ..PlaceOptions::fast() }, &multilevel),
    ] {
        let got = stage_sequence(&b, opts);
        for (what, got, want) in [
            ("checkpoint sink", &got[0], &expected[0]),
            ("trace stages", &got[1], &expected[1]),
            ("event kinds", &got[2], &expected[2]),
        ] {
            assert_eq!(got, want, "{label}: {what}");
        }
    }
}

#[test]
fn cancel_at_every_checkpoint_stops_there_and_resumes_identically() {
    let b = bench("rsm", 71);
    let (base_bits, base_hpwl, cps) = baseline_with_checkpoints(&b, PlaceOptions::fast());
    let stages: Vec<String> = cps.iter().map(|cp| cp.stage.clone()).collect();
    assert_eq!(stages, ["global_place", "inflate0", "inflate1", "legalize"]);
    for stage in &stages {
        // The token fires while the sink sees `stage`, i.e. mid-flow; the
        // run must stop at that very checkpoint, not one stage later.
        let token = Arc::new(AtomicBool::new(false));
        let raise = Arc::clone(&token);
        let progress = Placer::new(&b.design, PlaceOptions::fast())
            .with_initial(b.placement.clone())
            .with_cancel(token)
            .with_checkpoint_sink(move |cp| {
                if cp.stage == *stage {
                    raise.store(true, std::sync::atomic::Ordering::Relaxed);
                }
            })
            .run_resumable()
            .unwrap();
        let FlowProgress::Interrupted(cp) = progress else {
            panic!("cancel raised at `{stage}` did not interrupt the flow");
        };
        assert_eq!(&cp.stage, stage, "cancel raised at `{stage}` stopped elsewhere");
        let resumed = Placer::new(&b.design, PlaceOptions::fast())
            .resume_from(cp)
            .run()
            .unwrap();
        assert_eq!(resumed.hpwl.to_bits(), base_hpwl, "hpwl resuming from `{stage}`");
        assert_eq!(placement_bits(&b, &resumed.placement), base_bits, "placement resuming from `{stage}`");
    }
}
