//! Hand-computed hop answers for the paper's bidirectional ring (§5.2: four
//! FPGAs sharing a 100 Gb/s ring), asked of [`Topology::ring`], and the
//! ring's two-path formula the topology's unit tests use as a reference.

use crate::Topology;
use vital_fabric::FpgaId;

/// The ring's two candidate paths from `a` to `b` on a ring of `n`:
/// clockwise over links `a, a+1, .., b-1` and counter-clockwise over
/// `b, .., a-1` (mod `n`). Traffic takes the shorter of those that avoid
/// every down link; `None` when both cross one.
pub(crate) fn two_path_hops(n: usize, a: usize, b: usize, down: &[usize]) -> Option<usize> {
    if a == b {
        return Some(0);
    }
    let clear = |from: usize, len: usize| (0..len).all(|i| !down.contains(&((from + i) % n)));
    let cw = (b + n - a) % n;
    [(a, cw), (b, n - cw)]
        .into_iter()
        .filter(|&(from, len)| clear(from, len))
        .map(|(_, len)| len)
        .min()
}

/// The worst shortest-path distance over every pair.
pub(crate) fn diameter(t: &Topology) -> usize {
    let all = || (0..t.len() as u32).map(FpgaId::new);
    all()
        .flat_map(|a| all().map(move |b| t.hops(a, b)))
        .max()
        .unwrap_or(0)
}

mod tests {
    use super::*;

    fn f(i: u32) -> FpgaId {
        FpgaId::new(i)
    }

    fn hops_avoiding(t: &Topology, a: u32, b: u32, down: &[usize]) -> Option<usize> {
        let want = two_path_hops(t.len(), a as usize, b as usize, down);
        let got = t.max_hops_from_avoiding(f(a), [f(b)], down);
        assert_eq!(got, want, "{a}->{b} avoiding {down:?}");
        got
    }

    #[test]
    fn hops_take_the_short_way_round() {
        let ring = Topology::ring(4);
        assert_eq!(ring.hops(f(0), f(0)), 0);
        assert_eq!(ring.hops(f(0), f(1)), 1);
        assert_eq!(ring.hops(f(0), f(2)), 2);
        assert_eq!(ring.hops(f(0), f(3)), 1); // wraps
        assert_eq!(ring.hops(f(3), f(0)), 1); // symmetric
        assert_eq!(diameter(&ring), 2);
    }

    #[test]
    fn odd_rings() {
        let ring = Topology::ring(5);
        assert_eq!(ring.hops(f(0), f(3)), 2);
        assert_eq!(diameter(&ring), 2);
    }

    #[test]
    fn single_node_ring() {
        let ring = Topology::ring(1);
        assert_eq!(ring.hops(f(0), f(0)), 0);
        assert_eq!(diameter(&ring), 0);
    }

    #[test]
    fn down_links_reroute_the_long_way() {
        let ring = Topology::ring(4);
        // Link 0 joins FPGAs 0 and 1: traffic must go 0-3-2-1.
        assert_eq!(hops_avoiding(&ring, 0, 1, &[0]), Some(3));
        assert_eq!(hops_avoiding(&ring, 1, 0, &[0]), Some(3));
        // An unrelated pair keeps its shortest path.
        assert_eq!(hops_avoiding(&ring, 2, 3, &[0]), Some(1));
        // Two cuts partition the ring.
        assert_eq!(hops_avoiding(&ring, 0, 1, &[0, 2]), None);
        assert_eq!(hops_avoiding(&ring, 0, 3, &[0, 2]), Some(1));
        // Same node is always reachable.
        assert_eq!(hops_avoiding(&ring, 2, 2, &[0, 1, 2, 3]), Some(0));
        assert_eq!(ring.link_count(), 4);
        assert_eq!(Topology::ring(1).link_count(), 0);
    }

    #[test]
    fn max_hops_avoiding_detects_unreachable() {
        let ring = Topology::ring(4);
        assert_eq!(
            ring.max_hops_from_avoiding(f(0), [f(1), f(3)], &[0]),
            Some(3)
        );
        assert_eq!(ring.max_hops_from_avoiding(f(0), [f(2)], &[1, 3]), None);
        assert_eq!(
            ring.max_hops_from_avoiding(f(0), [], &[0, 1, 2, 3]),
            Some(0)
        );
    }

    /// With no link down, the worst distance from the primary.
    #[test]
    fn max_hops_from_primary() {
        let ring = Topology::ring(4);
        assert_eq!(
            ring.max_hops_from_avoiding(f(0), [f(0), f(1), f(2)], &[]),
            Some(2)
        );
        assert_eq!(ring.max_hops_from_avoiding(f(1), [f(1)], &[]), Some(0));
        assert_eq!(ring.max_hops_from_avoiding(f(0), [], &[]), Some(0));
    }
}
