//! Exact-optimum oracle for the n-level engines: on random instances of
//! at most 20 vertices, the 2-way n-level engine and the n-level direct
//! k-way engine at k = 2 must return a legal, audit-clean bisection
//! whose cut is no better than the brute-force optimum
//! ([`optimal_bisection`]) under the same balance window.
//!
//! Each instance is solved once by enumeration and then by both engines.
//! The test prints how far each engine lands from the optimum (run with
//! `--nocapture` to see it).

use proptest::prelude::*;
use proptest::TestRunner;

use hypart::benchgen::random_hypergraph;
use hypart::core::brute::optimal_bisection;
use hypart::core::AuditLevel;
use hypart::prelude::*;

/// Instances per run.
const CASES: u32 = 32;

/// (vertices, nets, max net size, max vertex weight, generator seed,
/// engine seed).
fn instance_params() -> impl Strategy<Value = (usize, usize, usize, u64, u64, u64)> {
    (
        4usize..21,
        3usize..40,
        2usize..6,
        1u64..4,
        any::<u64>(),
        any::<u64>(),
    )
}

/// Distance from the optimum over all solved instances.
#[derive(Default)]
struct Gaps {
    instances: usize,
    optimal: usize,
    total: u64,
    worst: u64,
}

impl Gaps {
    fn record(&mut self, cut: u64, optimum: u64) {
        let gap = cut - optimum;
        self.instances += 1;
        self.optimal += usize::from(gap == 0);
        self.total += gap;
        self.worst = self.worst.max(gap);
    }

    fn line(&self, engine: &str) -> String {
        format!(
            "{engine}: {} instances, {} at the optimum, mean gap {:.2} nets, worst gap {} nets",
            self.instances,
            self.optimal,
            self.total as f64 / self.instances.max(1) as f64,
            self.worst
        )
    }
}

/// Asserts that an engine's result is a legal bisection — flagged
/// balanced and audit-clean by the engine, inside the window by a fresh
/// evaluation, with the reported cut — and no better than the optimum.
/// Returns the cut.
fn check_bisection(
    h: &Hypergraph,
    c: &BalanceConstraint,
    sides: Vec<PartId>,
    reported: u64,
    legal: bool,
    optimum: u64,
    tag: &str,
) -> u64 {
    let bis = Bisection::new(h, sides).expect("valid assignment");
    assert!(legal && c.is_satisfied(&bis), "{tag}: illegal result");
    assert_eq!(bis.recompute_cut(), reported, "{tag}: reported cut");
    assert!(
        reported >= optimum,
        "{tag}: {reported} beat the optimum {optimum}"
    );
    reported
}

#[test]
fn nlevel_engines_never_beat_the_exact_optimum() {
    let mut runner = TestRunner::new(ProptestConfig::with_cases(CASES), "nlevel_oracle");
    let two_way = MlPartitioner::new(MlConfig::ml_lifo().with_engine(EngineKind::NLevel));
    let kway = MlKWayPartitioner::new(MlKWayConfig::default().with_engine(EngineKind::NLevel));
    let (mut gaps_2way, mut gaps_kway) = (Gaps::default(), Gaps::default());
    for case in 0..runner.cases() {
        let (n, m, size, w, seed, engine_seed) = runner.generate(&instance_params());
        let h = random_hypergraph(n, m, size, w, seed);
        let total = h.total_vertex_weight();
        // One window for the oracle and both engines: the k-way window at
        // k = 2, which bounds both parts exactly as the 2-way one does.
        let kb = KWayBalance::with_fraction(total, 2, 0.2);
        let c = BalanceConstraint::from_window(total, kb.lower(), kb.upper());
        assert_eq!((c.lower(), c.upper()), (kb.lower(), kb.upper()));
        let Some(opt) = optimal_bisection(&h, &c) else {
            continue; // no balanced bisection exists
        };
        let tag = format!("case {case} (n={n}, m={m}, seed={seed})");

        let mut ctx = RunCtx::new(engine_seed).with_audit(AuditLevel::Paranoid);
        let out = two_way.run_with(&h, &c, &mut ctx);
        let legal = out.balanced && out.audit_failure.is_none();
        let cut = check_bisection(&h, &c, out.assignment, out.cut, legal, opt.cut, &tag);
        gaps_2way.record(cut, opt.cut);

        let mut ctx = RunCtx::new(engine_seed).with_audit(AuditLevel::Paranoid);
        let out = kway.run_with(&h, &kb, &mut ctx);
        let legal = out.is_balanced(&kb) && out.audit_failure.is_none();
        let sides = out
            .assignment
            .iter()
            .map(|&p| match p {
                0 => PartId::P0,
                1 => PartId::P1,
                _ => panic!("{tag}: k-way part {p} out of range"),
            })
            .collect();
        let cut = check_bisection(&h, &c, sides, out.cut, legal, opt.cut, &tag);
        gaps_kway.record(cut, opt.cut);
    }
    assert!(gaps_2way.instances > 0, "every instance was infeasible");
    println!("{}", gaps_2way.line("n-level 2-way"));
    println!("{}", gaps_kway.line("n-level k-way, k=2"));
}
