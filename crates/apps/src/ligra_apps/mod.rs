//! The eight Ligra kernels of the paper's evaluation, on rMAT graphs.

pub mod bc;
pub mod bf;
pub mod bfs;
pub mod bfsbv;
pub mod cc;
pub mod mis;
pub mod radii;
pub mod tc;

/// Serial BFS distances from `src` over a host adjacency list
/// (`u64::MAX` = unreachable). Shared by several verifiers.
pub(crate) fn host_bfs(adj: &[Vec<usize>], src: usize) -> Vec<u64> {
    let mut dist = vec![u64::MAX; adj.len()];
    dist[src] = 0;
    let mut queue = std::collections::VecDeque::from([src]);
    while let Some(v) = queue.pop_front() {
        for &u in &adj[v] {
            if dist[u] == u64::MAX {
                dist[u] = dist[v] + 1;
                queue.push_back(u);
            }
        }
    }
    dist
}
