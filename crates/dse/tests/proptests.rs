//! Property-based tests for the output-space codecs and searchers.

use airchitect_dse::case1::Case1Problem;
use airchitect_dse::case2::{Case2Problem, Case2Query};
use airchitect_dse::case3::{self, Case3DatasetSpec, Case3Problem};
use airchitect_dse::space::{scheduling_space_size, Case1Space, Case2Space, Case3Space};
use airchitect_sim::multi::{MultiArraySystem, ScheduleCost};
use airchitect_sim::{ArrayConfig, Dataflow};
use airchitect_workload::GemmWorkload;
use proptest::prelude::*;

proptest! {
    /// Case-1 labels roundtrip for any budget exponent.
    #[test]
    fn case1_labels_roundtrip(budget_log2 in 2u32..=24, label_frac in 0.0f64..1.0) {
        let space = Case1Space::new(1u64 << budget_log2);
        prop_assume!(!space.is_empty());
        let label = ((space.len() - 1) as f64 * label_frac) as u32;
        let (array, df) = space.decode(label).expect("label < len");
        prop_assert_eq!(space.encode(array, df), Some(label));
        prop_assert!(array.macs() <= 1u64 << budget_log2);
    }

    /// The closed form 3·(n−1)·n/2 matches the enumeration.
    #[test]
    fn case1_size_closed_form(budget_log2 in 2u64..=30) {
        let space = Case1Space::new(1u64 << budget_log2);
        let expected = 3 * (budget_log2 - 1) * budget_log2 / 2;
        prop_assert_eq!(space.len() as u64, expected);
    }

    /// Case-2 labels roundtrip for arbitrary quantizations.
    #[test]
    fn case2_labels_roundtrip(step in 1u64..=500, steps in 1u32..=12, label_frac in 0.0f64..1.0) {
        let space = Case2Space::new(step, steps);
        let label = ((space.len() - 1) as f64 * label_frac) as u32;
        let (i, f, o) = space.decode(label).expect("label < len");
        prop_assert_eq!(space.encode(i, f, o), Some(label));
        for v in [i, f, o] {
            prop_assert!(v >= step && v <= step * steps as u64);
            prop_assert_eq!(v % step, 0);
        }
    }

    /// Case-3 labels decode to valid permutations and roundtrip.
    #[test]
    fn case3_labels_roundtrip(arrays in 1usize..=5, label_frac in 0.0f64..1.0) {
        let space = Case3Space::new(arrays);
        let label = ((space.len() - 1) as f64 * label_frac) as u32;
        let (perm, dfs) = space.decode(label).expect("label < len");
        let mut sorted = perm.clone();
        sorted.sort_unstable();
        prop_assert_eq!(sorted, (0..arrays).collect::<Vec<_>>());
        prop_assert_eq!(dfs.len(), arrays);
        prop_assert_eq!(space.encode(&perm, &dfs), Some(label));
    }

    /// Space size matches the paper's 3^x · x! formula.
    #[test]
    fn case3_size_matches_formula(arrays in 1usize..=6) {
        let space = Case3Space::new(arrays);
        prop_assert_eq!(
            space.len() as u64,
            scheduling_space_size(arrays as u32).expect("small x")
        );
    }

    /// The search optimum never loses to any individual configuration, and
    /// relaxing the budget never hurts.
    #[test]
    fn case1_search_optimal_and_budget_monotone(
        m in 1u64..=2048, n in 1u64..=2048, k in 1u64..=2048,
        budget_log2 in 4u32..=12,
    ) {
        let problem = Case1Problem::new(1 << 12);
        let wl = GemmWorkload::new(m, n, k).expect("dims >= 1");
        let tight = problem.search(&wl, 1u64 << budget_log2);
        let loose = problem.search(&wl, 1u64 << (budget_log2 + 2));
        prop_assert!(loose.cost <= tight.cost, "bigger budget can only help");
        // Perf of the optimum is exactly 1.
        let perf = problem.normalized_performance(&wl, 1u64 << budget_log2, tight.label);
        prop_assert!((perf - 1.0).abs() < 1e-12);
    }
}

/// Brute force over every label with the per-label simulator: the first
/// label no later one strictly beats.
fn case3_brute_force(problem: &Case3Problem, workloads: &[GemmWorkload]) -> (u32, ScheduleCost) {
    let mut best: Option<(u32, ScheduleCost)> = None;
    for label in 0..problem.space().len() as u32 {
        let cost = problem.cost_of(workloads, label).expect("label in space");
        if best.is_none_or(|(_, b)| cost.better_than(&b)) {
            best = Some((label, cost));
        }
    }
    best.expect("space is non-empty")
}

/// `count` workloads from `dims`; a non-zero `dup` copies workload 0 over
/// workload `dup`, so permutations that swap equal workloads tie and the
/// lowest label must win.
fn workload_set(dims: &[(u64, u64, u64)], count: usize, dup: usize) -> Vec<GemmWorkload> {
    let mut wls: Vec<GemmWorkload> = dims[..count]
        .iter()
        .map(|&(m, n, k)| GemmWorkload::new(m, n, k).expect("dims >= 1"))
        .collect();
    if dup > 0 && dup < count {
        wls[dup] = wls[0];
    }
    wls
}

fn workload_dims() -> impl Strategy<Value = Vec<(u64, u64, u64)>> {
    proptest::collection::vec((1u64..=2048, 1u64..=2048, 1u64..=2048), 4)
}

fn assert_case3_search_exact(
    problem: &Case3Problem,
    workloads: &[GemmWorkload],
    probe: u32,
) -> Result<(), TestCaseError> {
    let (label, cost) = case3_brute_force(problem, workloads);
    let found = problem.search(workloads);
    prop_assert_eq!(found.label, label);
    prop_assert_eq!(found.cost, cost.makespan);
    prop_assert_eq!(found.evaluations, problem.space().len() as u64);
    let chosen = problem
        .cost_of(workloads, found.label)
        .expect("label in space");
    prop_assert_eq!(chosen.energy.to_bits(), cost.energy.to_bits());
    // A predicted label is priced from the table exactly as simulated.
    let predicted = problem.cost_of(workloads, probe).expect("label in space");
    prop_assert_eq!(
        problem.normalized_performance(workloads, probe).to_bits(),
        (cost.makespan as f64 / predicted.makespan as f64).to_bits()
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The table-driven CS3 search returns what brute force over
    /// `cost_of` returns on the paper's 4-array system.
    #[test]
    fn case3_search_matches_brute_force_on_four_arrays(
        dims in workload_dims(), dup in 0usize..4, probe_frac in 0.0f64..1.0,
    ) {
        let problem = Case3Problem::new();
        let probe = (probe_frac * (problem.space().len() - 1) as f64) as u32;
        assert_case3_search_exact(&problem, &workload_set(&dims, 4, dup), probe)?;
    }

    /// The same on the 3-array system (162 labels).
    #[test]
    fn case3_search_matches_brute_force_on_three_arrays(
        dims in workload_dims(), dup in 0usize..3, probe_frac in 0.0f64..1.0,
    ) {
        let problem = Case3Problem::with_system(MultiArraySystem::heterogeneous_3());
        let probe = (probe_frac * (problem.space().len() - 1) as f64) as u32;
        assert_case3_search_exact(&problem, &workload_set(&dims, 3, dup), probe)?;
    }

}

proptest! {
    // Equal-stall, equal-capacity ties are rare among random queries; this
    // many cases reliably reaches some, so the lowest-label rule is tested.
    #![proptest_config(ProptestConfig::with_cases(400))]

    /// The CS2 search (stall model built once per query) returns what
    /// per-label `stalls_of` brute force returns: minimum stalls, then
    /// minimum capacity, then lowest label; label 0 when nothing fits.
    #[test]
    fn case2_search_matches_brute_force(
        m in 1u64..=2048, n in 1u64..=2048, k in 1u64..=2048,
        rows_log2 in 2u32..=9, cols_log2 in 2u32..=9, df in 0usize..3,
        bandwidth in 1u64..=100, limit_kb in 100u64..=3200,
    ) {
        let problem = Case2Problem::new();
        let query = Case2Query {
            workload: GemmWorkload::new(m, n, k).expect("dims >= 1"),
            array: ArrayConfig::new(1 << rows_log2, 1 << cols_log2).expect("pow2 dims"),
            dataflow: Dataflow::from_index(df).expect("index < 3"),
            bandwidth,
            limit_kb,
        };
        let mut best: Option<(u32, u64, u64)> = None;
        let mut feasible = 0u64;
        for (label, i, f, o) in problem.space().iter() {
            let Some(stalls) = problem.stalls_of(&query, label) else {
                continue;
            };
            feasible += 1;
            let total = i + f + o;
            if best.is_none_or(|(_, s, t)| stalls < s || (stalls == s && total < t)) {
                best = Some((label, stalls, total));
            }
        }
        let (label, stalls) = match best {
            Some((label, stalls, _)) => (label, stalls),
            None => {
                let unlimited = Case2Query { limit_kb: u64::MAX, ..query };
                (0, problem.stalls_of(&unlimited, 0).expect("label 0 decodes"))
            }
        };
        let found = problem.search(&query);
        prop_assert_eq!(found.label, label);
        prop_assert_eq!(found.cost, stalls);
        prop_assert_eq!(found.evaluations, feasible);
    }
}

/// FNV-1a over the little-endian label bytes.
fn label_checksum(labels: &[u32]) -> u64 {
    labels
        .iter()
        .flat_map(|l| l.to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

/// The CS3 dataset is pinned bit for bit: any change to the search, the
/// cost model or the sampler that moves a single label fails here.
#[test]
fn case3_dataset_labels_match_golden_checksum() {
    let spec = Case3DatasetSpec {
        samples: 300,
        seed: 1,
    };
    let ds = case3::generate_dataset(&Case3Problem::new(), &spec);
    assert_eq!(ds.len(), 300);
    let mut distinct = ds.labels().to_vec();
    distinct.sort_unstable();
    distinct.dedup();
    assert!(distinct.len() > 10, "the checksum must cover varied labels");
    assert_eq!(label_checksum(ds.labels()), 0x069d_bc4e_aa48_24db);
}
