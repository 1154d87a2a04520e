//! The benchmark's own exact answers: Dijkstra over the generator's segment
//! list, independent of the workspace's graph layout and search code, so a
//! fault shared by the index and `hc2l_graph` cannot check itself.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

use hc2l_roadnet::synthetic::RoadNetwork;
use hc2l_roadnet::WeightMode;

/// An undirected weighted graph kept as per-vertex lists of
/// `(neighbour, segment)`; weights live per segment so a re-weighting
/// touches one slot.
#[derive(Clone)]
pub struct RefGraph {
    adj: Vec<Vec<(u32, u32)>>,
    weights: Vec<u64>,
    segment_of: HashMap<(u32, u32), u32>,
}

impl RefGraph {
    /// Builds from `(u, v, weight)` triples.
    pub fn from_edges(n: usize, edges: &[(u32, u32, u64)]) -> Self {
        let mut adj = vec![Vec::new(); n];
        let mut weights = Vec::with_capacity(edges.len());
        let mut segment_of = HashMap::with_capacity(edges.len());
        for (i, &(u, v, w)) in edges.iter().enumerate() {
            let i = i as u32;
            adj[u as usize].push((v, i));
            adj[v as usize].push((u, i));
            weights.push(w);
            segment_of.insert((u.min(v), u.max(v)), i);
        }
        RefGraph {
            adj,
            weights,
            segment_of,
        }
    }

    /// The network's segments weighted by `mode`, as the served graph is.
    pub fn from_network(net: &RoadNetwork, mode: WeightMode) -> Self {
        let edges: Vec<(u32, u32, u64)> = net
            .segments
            .iter()
            .map(|s| (s.u, s.v, u64::from(mode.weight_of(s.length, s.class))))
            .collect();
        RefGraph::from_edges(net.num_vertices(), &edges)
    }

    /// Re-weights segment `{u, v}`; false when no such segment exists.
    pub fn set_weight(&mut self, u: u32, v: u32, w: u64) -> bool {
        match self.segment_of.get(&(u.min(v), u.max(v))) {
            Some(&i) => {
                self.weights[i as usize] = w;
                true
            }
            None => false,
        }
    }

    /// Distances from `source` to every vertex (`u64::MAX` if unreachable).
    pub fn distances_from(&self, source: u32) -> Vec<u64> {
        let mut dist = vec![u64::MAX; self.adj.len()];
        let mut heap = BinaryHeap::new();
        dist[source as usize] = 0;
        heap.push(Reverse((0u64, source)));
        while let Some(Reverse((d, u))) = heap.pop() {
            if d > dist[u as usize] {
                continue;
            }
            for &(v, seg) in &self.adj[u as usize] {
                let nd = d + self.weights[seg as usize];
                if nd < dist[v as usize] {
                    dist[v as usize] = nd;
                    heap.push(Reverse((nd, v)));
                }
            }
        }
        dist
    }
}

/// One answer to check: the server said `d(source, target) = got`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Answer {
    pub source: u32,
    pub target: u32,
    pub got: u64,
}

/// Checks answers against Dijkstra on `g`, one search per distinct source.
/// Returns the answers that disagree, with the expected distance.
pub fn check_answers(g: &RefGraph, answers: &[Answer]) -> Vec<(Answer, u64)> {
    let mut by_source: Vec<&Answer> = answers.iter().collect();
    by_source.sort_by_key(|a| a.source);
    let mut wrong = Vec::new();
    let mut i = 0;
    while i < by_source.len() {
        let s = by_source[i].source;
        let dist = g.distances_from(s);
        while i < by_source.len() && by_source[i].source == s {
            let a = by_source[i];
            let want = dist[a.target as usize];
            if a.got != want {
                wrong.push((*a, want));
            }
            i += 1;
        }
    }
    wrong
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 0 -1- 1 -1- 2, plus a long 0-2 edge of weight 5, and 3 hanging off 2.
    fn small() -> RefGraph {
        RefGraph::from_edges(4, &[(0, 1, 1), (1, 2, 1), (0, 2, 5), (2, 3, 2)])
    }

    #[test]
    fn dijkstra_on_a_known_graph() {
        let g = small();
        assert_eq!(g.distances_from(0), vec![0, 1, 2, 4]);
        assert_eq!(g.distances_from(3), vec![4, 3, 2, 0]);
    }

    #[test]
    fn reweighting_changes_answers() {
        let mut g = small();
        assert!(g.set_weight(2, 1, 10));
        assert_eq!(g.distances_from(0), vec![0, 1, 5, 7]);
        assert!(!g.set_weight(0, 3, 1));
    }

    #[test]
    fn checker_catches_a_planted_wrong_distance() {
        let g = small();
        let mut answers = vec![
            Answer {
                source: 0,
                target: 3,
                got: 4,
            },
            Answer {
                source: 3,
                target: 1,
                got: 3,
            },
            Answer {
                source: 1,
                target: 1,
                got: 0,
            },
        ];
        assert!(check_answers(&g, &answers).is_empty());
        answers[1].got = 2;
        let wrong = check_answers(&g, &answers);
        assert_eq!(
            wrong,
            vec![(
                Answer {
                    source: 3,
                    target: 1,
                    got: 2
                },
                3
            )]
        );
    }

    #[test]
    fn agrees_with_the_generator_network() {
        let net = hc2l_roadnet::RoadNetworkConfig::city(6, 6, 3).generate();
        let g = RefGraph::from_network(&net, WeightMode::TravelTime);
        let d = g.distances_from(0);
        // Connected city: every vertex reachable, symmetric distances.
        assert!(d.iter().all(|&x| x < u64::MAX));
        for t in 0..net.num_vertices() as u32 {
            assert_eq!(g.distances_from(t)[0], d[t as usize]);
        }
    }
}
