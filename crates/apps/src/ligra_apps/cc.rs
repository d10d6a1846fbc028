//! `ligra-cc`: connected components by label propagation — every vertex
//! starts with its own id and repeatedly adopts the minimum label in its
//! neighbourhood (Ligra's Components with atomic write-min).

use std::sync::Arc;

use bigtiny_engine::{AddrSpace, RacyTag, ShVec};

use crate::graph::Graph;
use crate::ligra::{edge_map, VertexSubset};
use crate::registry::{fingerprint_words, AppSize, Prepared};

/// Instantiates `ligra-cc` on an rMAT graph.
pub fn prepare(space: &mut AddrSpace, size: AppSize, grain: usize) -> Prepared {
    let (n, ef) = match size {
        AppSize::Test => (64, 4),
        AppSize::Eval => (3072, 8),
        AppSize::Large => (12288, 8),
    };
    let grain = if grain == 0 { 256 } else { grain };
    let g = Arc::new(Graph::rmat(space, n, ef, 0xcc));
    let n = g.num_vertices();

    let ids = Arc::new(ShVec::from_vec(space, (0..n as u64).collect()));
    let cur = Arc::new(VertexSubset::new(space, n));
    let nxt = Arc::new(VertexSubset::new(space, n));
    for v in 0..n {
        cur.host_insert(v);
    }

    let (g2, i2) = (Arc::clone(&g), Arc::clone(&ids));
    let i3 = Arc::clone(&ids);
    let root: crate::RootFn = Box::new(move |cx| {
        let mut cur = cur;
        let mut nxt = nxt;
        loop {
            let (ir, iu) = (Arc::clone(&i2), Arc::clone(&i2));
            edge_map(
                cx,
                &g2,
                &cur,
                &nxt,
                grain,
                |_, _| true,
                // Propagate the smaller label. Benign race
                // (LigraMonotoneSrc): labels only decrease, so a stale read
                // propagates an older (larger) label and a later round
                // repairs; the atomic write-min decides.
                move |cx, s, d, _| {
                    let ls = ir.read_racy(cx.port(), s, RacyTag::LigraMonotoneSrc);
                    cx.port().advance(1);
                    iu.amo(cx.port(), d, |x| {
                        if ls < *x {
                            *x = ls;
                            true
                        } else {
                            false
                        }
                    })
                },
            );
            if nxt.count(cx) == 0 {
                break;
            }
            std::mem::swap(&mut cur, &mut nxt);
            nxt.par_clear(cx, grain.max(64));
        }
    });
    let verify = Box::new(move || {
        let adj = g.host_adjacency();
        let got = ids.snapshot();
        check_labels(&got, &host_components(&adj))
    });
    Prepared { root, verify, fingerprint: Some(Box::new(move || fingerprint_words(i3.snapshot()))) }
}

/// Each label must be the minimum vertex id of its component. That alone
/// fixes the partition too: two vertices share a label exactly when they
/// share a component's minimum.
fn check_labels(got: &[u64], want: &[usize]) -> Result<(), String> {
    match got.iter().zip(want).position(|(&g, &w)| g != w as u64) {
        None => Ok(()),
        Some(v) => Err(format!("ligra-cc: label of {v} is {} expected min-id {}", got[v], want[v])),
    }
}

/// Serial reference: min vertex id per component via union-find.
fn host_components(adj: &[Vec<usize>]) -> Vec<usize> {
    let n = adj.len();
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(p: &mut Vec<usize>, x: usize) -> usize {
        if p[x] != x {
            let r = find(p, p[x]);
            p[x] = r;
        }
        p[x]
    }
    for (v, nv) in adj.iter().enumerate() {
        for &u in nv {
            let (rv, ru) = (find(&mut parent, v), find(&mut parent, u));
            if rv != ru {
                parent[rv.max(ru)] = rv.min(ru);
            }
        }
    }
    let mut min_id = vec![usize::MAX; n];
    for v in 0..n {
        let r = find(&mut parent, v);
        min_id[r] = min_id[r].min(v);
    }
    (0..n).map(|v| min_id[find(&mut parent, v)]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::sys;
    use bigtiny_core::{run_task_parallel, RuntimeConfig, RuntimeKind};
    use bigtiny_engine::Protocol;

    #[test]
    fn labels_are_component_minima() {
        for (kind, proto) in
            [(RuntimeKind::Hcc, Protocol::GpuWb), (RuntimeKind::Dts, Protocol::GpuWt)]
        {
            let s = sys(proto);
            let mut space = AddrSpace::new();
            let prepared = prepare(&mut space, AppSize::Test, 8);
            let run = run_task_parallel(&s, &RuntimeConfig::new(kind), &mut space, prepared.root);
            (prepared.verify)().unwrap_or_else(|e| panic!("{kind:?}: {e}"));
            assert_eq!(run.report.stale_reads, 0, "{kind:?}");
        }
    }

    /// Components {0, 2} and {1, 3}: the labels of 2 and 3 swapped split
    /// the partition differently, and the check still rejects them.
    #[test]
    fn swapped_labels_are_rejected() {
        let want = [0, 1, 0, 1];
        assert_eq!(check_labels(&[0, 1, 0, 1], &want), Ok(()));
        assert_eq!(
            check_labels(&[0, 1, 1, 0], &want),
            Err("ligra-cc: label of 2 is 1 expected min-id 0".to_owned())
        );
        // Same partition, but not labelled by each component's minimum.
        assert!(check_labels(&[2, 3, 2, 3], &want).is_err());
    }
}
