//! Property tests of the BSP engine's message routing: arbitrary
//! communication matrices must be delivered exactly.

use cluster_sim::{Bsp, Envelope};
use proptest::prelude::*;

/// A communication plan: for each sender, a list of (dest, payload).
fn plan(p: usize) -> impl Strategy<Value = Vec<Vec<(usize, u64)>>> {
    prop::collection::vec(prop::collection::vec((0..p, any::<u64>()), 0..12), p..=p)
}

fn run_plan(plan: &[Vec<(usize, u64)>]) -> Vec<Vec<(usize, u64)>> {
    let p = plan.len();
    let mut bsp = Bsp::new(vec![Vec::<(usize, u64)>::new(); p]);
    let plan_ref = plan.to_vec();
    bsp.exchange(
        move |r, _s| plan_ref[r].iter().map(|&(to, v)| Envelope::new(to, v)).collect(),
        |_r, s: &mut Vec<(usize, u64)>, inbox: Vec<(usize, u64)>| {
            *s = inbox;
        },
    );
    bsp.into_states()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn every_message_delivered_exactly_once(plan in (2usize..7).prop_flat_map(plan)) {
        let inboxes = run_plan(&plan);
        // Expected inbox of rank r: all (src, v) with (r, v) in src's plan,
        // sorted by src (stable within one sender).
        for (r, inbox) in inboxes.iter().enumerate() {
            let mut want: Vec<(usize, u64)> = plan
                .iter()
                .enumerate()
                .flat_map(|(src, out)| {
                    out.iter().filter(|(to, _)| *to == r).map(move |&(_, v)| (src, v))
                })
                .collect();
            want.sort_by_key(|(src, _)| *src);
            let mut got = inbox.clone();
            got.sort_by_key(|(src, _)| *src);
            // Compare as multisets per source.
            let norm = |v: &[(usize, u64)]| {
                let mut v = v.to_vec();
                v.sort_unstable();
                v
            };
            prop_assert_eq!(norm(&got), norm(&want), "rank {}", r);
        }
    }

    #[test]
    fn allgather_any_values(vals in prop::collection::vec(any::<u32>(), 1..9)) {
        let p = vals.len();
        let vals_ref = vals.clone();
        let mut bsp = Bsp::new(vec![(); p]);
        let got = bsp.allgather(move |r, _s| vals_ref[r]);
        prop_assert_eq!(got, vals);
    }

    #[test]
    fn makespan_monotone_in_steps(n_steps in 1usize..10) {
        let mut bsp = Bsp::new(vec![(); 3]);
        let mut last = 0.0;
        for _ in 0..n_steps {
            bsp.run(|_r, _s| {});
            prop_assert!(bsp.makespan() >= last);
            last = bsp.makespan();
        }
        prop_assert_eq!(bsp.steps(), n_steps);
    }
}
