//! Property-based tests for the analytical simulator invariants.

use airchitect_sim::memory::{self, BufferConfig};
use airchitect_sim::multi::{Assignment, MultiArraySystem, Schedule};
use airchitect_sim::{compute, ArrayConfig, Dataflow};
use airchitect_workload::GemmWorkload;
use proptest::prelude::*;

fn dims() -> impl Strategy<Value = u64> {
    1u64..=4096
}

fn pow2_dim() -> impl Strategy<Value = u64> {
    (1u32..=9).prop_map(|e| 1u64 << e)
}

fn dataflow() -> impl Strategy<Value = Dataflow> {
    prop_oneof![Just(Dataflow::Os), Just(Dataflow::Ws), Just(Dataflow::Is)]
}

proptest! {
    /// Runtime never beats the roofline compute bound.
    #[test]
    fn runtime_at_least_lower_bound(
        m in dims(), n in dims(), k in dims(),
        r in pow2_dim(), c in pow2_dim(), df in dataflow(),
    ) {
        let wl = GemmWorkload::new(m, n, k).unwrap();
        let a = ArrayConfig::new(r, c).unwrap();
        prop_assert!(
            compute::runtime_cycles(&wl, a, df) >= compute::compute_lower_bound(&wl, a)
        );
    }

    /// Utilization is a valid fraction.
    #[test]
    fn utilization_in_unit_interval(
        m in dims(), n in dims(), k in dims(),
        r in pow2_dim(), c in pow2_dim(), df in dataflow(),
    ) {
        let wl = GemmWorkload::new(m, n, k).unwrap();
        let a = ArrayConfig::new(r, c).unwrap();
        let u = compute::utilization(&wl, a, df);
        prop_assert!(u > 0.0 && u <= 1.0 + 1e-12);
    }

    /// Growing any workload dimension never reduces runtime.
    #[test]
    fn runtime_monotone_in_workload(
        m in 1u64..=2048, n in 1u64..=2048, k in 1u64..=2048,
        r in pow2_dim(), c in pow2_dim(), df in dataflow(),
    ) {
        let a = ArrayConfig::new(r, c).unwrap();
        let base = compute::runtime_cycles(&GemmWorkload::new(m, n, k).unwrap(), a, df);
        let gm = compute::runtime_cycles(&GemmWorkload::new(m + 1, n, k).unwrap(), a, df);
        let gn = compute::runtime_cycles(&GemmWorkload::new(m, n + 1, k).unwrap(), a, df);
        let gk = compute::runtime_cycles(&GemmWorkload::new(m, n, k + 1).unwrap(), a, df);
        prop_assert!(gm >= base && gn >= base && gk >= base);
    }

    /// Growing any buffer never increases DRAM traffic or stalls.
    #[test]
    fn memory_monotone_in_buffers(
        m in dims(), n in dims(), k in dims(),
        r in pow2_dim(), c in pow2_dim(), df in dataflow(),
        ikb in 1u64..=500, fkb in 1u64..=500, okb in 1u64..=500,
        bw in 1u64..=100,
    ) {
        let wl = GemmWorkload::new(m, n, k).unwrap();
        let a = ArrayConfig::new(r, c).unwrap();
        let small = BufferConfig::from_kb(ikb, fkb, okb).unwrap();
        let big = BufferConfig::from_kb(2 * ikb, 2 * fkb, 2 * okb).unwrap();
        let ts = memory::dram_traffic(&wl, a, df, small).total();
        let tb = memory::dram_traffic(&wl, a, df, big).total();
        prop_assert!(tb <= ts);
        let ss = memory::stall_cycles(&wl, a, df, small, bw).unwrap();
        let sb = memory::stall_cycles(&wl, a, df, big, bw).unwrap();
        prop_assert!(sb <= ss);
    }

    /// DRAM traffic never drops below the sum of operand footprints.
    #[test]
    fn traffic_at_least_footprints(
        m in dims(), n in dims(), k in dims(),
        r in pow2_dim(), c in pow2_dim(), df in dataflow(),
        ikb in 1u64..=1000, fkb in 1u64..=1000, okb in 1u64..=1000,
    ) {
        let wl = GemmWorkload::new(m, n, k).unwrap();
        let a = ArrayConfig::new(r, c).unwrap();
        let b = BufferConfig::from_kb(ikb, fkb, okb).unwrap();
        let t = memory::dram_traffic(&wl, a, df, b);
        prop_assert!(t.ifmap >= wl.ifmap_elems());
        prop_assert!(t.filter >= wl.filter_elems());
        prop_assert!(t.ofmap >= wl.ofmap_elems());
    }

    /// Doubling bandwidth never increases stalls.
    #[test]
    fn stalls_monotone_in_bandwidth(
        m in dims(), n in dims(), k in dims(),
        r in pow2_dim(), c in pow2_dim(), df in dataflow(),
        bw in 1u64..=64,
    ) {
        let wl = GemmWorkload::new(m, n, k).unwrap();
        let a = ArrayConfig::new(r, c).unwrap();
        let b = BufferConfig::from_kb(200, 200, 200).unwrap();
        let s1 = memory::stall_cycles(&wl, a, df, b, bw).unwrap();
        let s2 = memory::stall_cycles(&wl, a, df, b, 2 * bw).unwrap();
        prop_assert!(s2 <= s1);
    }

    /// A cost-table lookup prices any schedule, permutation or not, to the
    /// same makespan and energy bits as simulating it.
    #[test]
    fn cost_table_matches_evaluate_bit_for_bit(
        dims in proptest::collection::vec((1u64..=2048, 1u64..=2048, 1u64..=2048), 4),
        picks in proptest::collection::vec((0usize..4, 0usize..3), 4),
    ) {
        let wls: Vec<GemmWorkload> = dims
            .iter()
            .map(|&(m, n, k)| GemmWorkload::new(m, n, k).unwrap())
            .collect();
        let sys = MultiArraySystem::heterogeneous_4();
        let table = sys.cost_table(&wls).unwrap();
        let sched = Schedule {
            assignments: picks
                .iter()
                .map(|&(workload, df)| Assignment {
                    workload,
                    dataflow: Dataflow::ALL[df],
                })
                .collect(),
        };
        let simulated = sys.evaluate(&wls, &sched).unwrap();
        let looked_up = table.cost(sched.assignments.iter().copied());
        prop_assert_eq!(looked_up.makespan, simulated.makespan);
        prop_assert_eq!(looked_up.energy.to_bits(), simulated.energy.to_bits());
    }

    /// The per-query stall model prices every buffer split exactly as the
    /// one-shot stall and total-cycle functions do.
    #[test]
    fn stall_model_matches_one_shot_functions(
        m in dims(), n in dims(), k in dims(),
        r in pow2_dim(), c in pow2_dim(), df in dataflow(),
        ikb in 1u64..=1000, fkb in 1u64..=1000, okb in 1u64..=1000,
        bw in 1u64..=100,
    ) {
        let wl = GemmWorkload::new(m, n, k).unwrap();
        let a = ArrayConfig::new(r, c).unwrap();
        let b = BufferConfig::from_kb(ikb, fkb, okb).unwrap();
        let model = memory::StallModel::new(&wl, a, df, bw).unwrap();
        let stalls = memory::stall_cycles(&wl, a, df, b, bw).unwrap();
        prop_assert_eq!(model.stall_cycles(b), stalls);
        prop_assert_eq!(model.compute_cycles(), compute::runtime_cycles(&wl, a, df));
        prop_assert_eq!(
            memory::total_cycles(&wl, a, df, b, bw).unwrap(),
            model.compute_cycles() + stalls
        );
        prop_assert_eq!(model.traffic(b), memory::dram_traffic(&wl, a, df, b));
    }
}

mod functional_equivalence {
    use airchitect_sim::functional::{FunctionalArray, SimMatrix};
    use airchitect_sim::{compute, ArrayConfig, Dataflow};
    use airchitect_workload::GemmWorkload;
    use proptest::prelude::*;

    /// Deterministic small-integer matrix from a seed (exact in f32).
    fn small_int_matrix(rows: usize, cols: usize, seed: u64) -> SimMatrix {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        let data: Vec<f32> = (0..rows * cols)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((state >> 60) as i64 - 8) as f32
            })
            .collect();
        SimMatrix::from_vec(rows, cols, data)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The register-level machine computes the exact matrix product and
        /// takes exactly the cycles the analytical model charges, for every
        /// dataflow and ragged tiling.
        #[test]
        fn functional_matches_analytical(
            m in 1u64..=10, n in 1u64..=10, k in 1u64..=10,
            r in 1u32..=3, c in 1u32..=3,
            df_idx in 0usize..3,
            seed in 0u64..1000,
        ) {
            let df = Dataflow::from_index(df_idx).expect("index < 3");
            let wl = GemmWorkload::new(m, n, k).expect("dims >= 1");
            let array = ArrayConfig::new(1 << r, 1 << c).expect("pow2 dims");
            let a = small_int_matrix(m as usize, k as usize, seed);
            let b = small_int_matrix(k as usize, n as usize, seed ^ 0xABCD);
            let result = FunctionalArray::new(array)
                .execute(&wl, &a, &b, df)
                .expect("matching shapes");
            prop_assert_eq!(result.output, a.matmul_reference(&b));
            prop_assert_eq!(result.macs_issued, wl.macs());
            prop_assert_eq!(result.cycles, compute::runtime_cycles(&wl, array, df));
        }
    }
}
