//! Minimum-channel-width search.
//!
//! The paper sizes the fabric "20% bigger than the minimum needed" in both
//! array area and channel width (§IV-B). The minimum channel width is
//! found the way VPR does it: route the design repeatedly while binary
//! searching the channel width.

use crate::{RouteNet, Router, RouterOptions};
use mm_arch::{Architecture, RoutingGraph};

/// One routing attempt of the width search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WidthProbe {
    /// The channel width tried.
    pub width: usize,
    /// Whether the nets routed at that width.
    pub success: bool,
    /// PathFinder iterations the attempt ran.
    pub iterations: usize,
}

/// Result of the minimum-channel-width search.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MinWidthResult {
    /// The smallest channel width that routed successfully.
    pub min_width: usize,
    /// Every probe, in the order the search ran them.
    pub probes: Vec<WidthProbe>,
}

/// Finds the minimum channel width for which `nets(rrg)` routes on `arch`,
/// scanning `4..=max_width` by doubling then binary search.
///
/// The net list must be rebuilt per width because RRG node ids change;
/// `nets` receives each candidate graph.
///
/// Returns `None` if even `max_width` fails (or `max_width` is 0).
pub fn min_channel_width(
    arch: &Architecture,
    options: &RouterOptions,
    max_width: usize,
    mut nets: impl FnMut(&RoutingGraph) -> Vec<RouteNet>,
) -> Option<MinWidthResult> {
    search_widths(max_width, |width| {
        let rrg = RoutingGraph::build(&arch.with_channel_width(width));
        let routing = Router::new(&rrg, *options).route(&nets(&rrg));
        WidthProbe {
            width,
            success: routing.success,
            iterations: routing.iterations,
        }
    })
}

/// The probe schedule of [`min_channel_width`] over any routing attempt:
/// double upwards from 4 until a width routes, then binary search between
/// the last failing and the first routing width (width 1 is presumed to
/// fail).
fn search_widths(
    max_width: usize,
    mut probe: impl FnMut(usize) -> WidthProbe,
) -> Option<MinWidthResult> {
    if max_width == 0 {
        return None;
    }
    let mut probes = Vec::new();
    let mut routes = |width: usize| {
        let p = probe(width);
        probes.push(p);
        p.success
    };

    // Exponential probe upwards from 4.
    let mut lo = 1usize; // highest width presumed or known to fail
    let mut hi = 4usize.min(max_width);
    while !routes(hi) {
        lo = hi;
        if hi >= max_width {
            return None;
        }
        hi = (hi * 2).min(max_width);
    }

    // Binary search in (lo, hi).
    while hi - lo > 1 {
        let mid = (lo + hi) / 2;
        if routes(mid) {
            hi = mid;
        } else {
            lo = mid;
        }
    }

    Some(MinWidthResult {
        min_width: hi,
        probes,
    })
}

/// The paper's relaxed width: 20% above the minimum (rounded up).
#[must_use]
pub fn relaxed_width(min_width: usize) -> usize {
    ((min_width as f64) * 1.2).ceil() as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::route_reference;
    use crate::RouteSink;
    use mm_arch::Site;
    use mm_boolexpr::ModeSet;

    /// Dense all-to-neighbour traffic on a small array.
    fn traffic(rrg: &RoutingGraph) -> Vec<RouteNet> {
        let n = rrg.arch().grid as u16;
        let all = ModeSet::of(&[0]);
        let mut nets = Vec::new();
        for y in 1..=n {
            for x in 1..=n {
                let tx = n + 1 - x;
                let ty = n + 1 - y;
                if (tx, ty) == (x, y) {
                    continue;
                }
                nets.push(RouteNet {
                    name: format!("n{x}_{y}"),
                    source: rrg.logic_source(Site::new(x, y, 0)),
                    sinks: vec![RouteSink {
                        node: rrg.logic_sink(Site::new(tx, ty, 0)),
                        activation: all,
                    }],
                });
            }
        }
        nets
    }

    #[test]
    fn finds_minimum_and_is_tight() {
        let arch = Architecture::new(4, 4, 1);
        let options = RouterOptions {
            max_iterations: 25,
            ..RouterOptions::default()
        };
        let result = min_channel_width(&arch, &options, 64, traffic).expect("routable");
        let last_success = result
            .probes
            .iter()
            .rfind(|p| p.success)
            .expect("a width routed");
        assert_eq!(last_success.width, result.min_width);
        assert!(result.min_width >= 2, "crossing traffic needs width ≥ 2");

        // One less must fail (that is what "minimum" means).
        if result.min_width > 1 {
            let w = result.min_width - 1;
            let rrg = RoutingGraph::build(&arch.with_channel_width(w));
            let nets = traffic(&rrg);
            let mut router = Router::new(&rrg, options);
            assert!(!router.route(&nets).success, "width {w} should fail");
        }
    }

    #[test]
    fn unroutable_returns_none() {
        let arch = Architecture::new(4, 3, 1);
        let options = RouterOptions {
            max_iterations: 4,
            ..RouterOptions::default()
        };
        // Cap the width below anything useful for dense traffic.
        let result = min_channel_width(&arch, &options, 1, |rrg| {
            let all = ModeSet::of(&[0]);
            // Four nets all targeting sinks across the same corridor.
            (1..=3u16)
                .flat_map(|y| {
                    [RouteNet {
                        name: format!("a{y}"),
                        source: rrg.logic_source(Site::new(1, y, 0)),
                        sinks: vec![
                            RouteSink {
                                node: rrg.logic_sink(Site::new(3, 4 - y, 0)),
                                activation: all,
                            },
                            RouteSink {
                                node: rrg.logic_sink(Site::new(3, y, 0)),
                                activation: all,
                            },
                        ],
                    }]
                })
                .collect()
        });
        // Width 1 may or may not route this; if it routes, min_width == 1.
        if let Some(r) = result {
            assert_eq!(r.min_width, 1);
        }
    }

    /// The probe log — widths, outcomes and iteration counts — is the
    /// one the same schedule produces with the naive reference router.
    #[test]
    fn probe_log_matches_the_reference_router() {
        let arch = Architecture::new(4, 5, 1);
        let options = RouterOptions {
            max_iterations: 12,
            ..RouterOptions::default()
        };
        let result = min_channel_width(&arch, &options, 64, traffic).expect("routable");
        let reference = search_widths(64, |width| {
            let rrg = RoutingGraph::build(&arch.with_channel_width(width));
            let routing = route_reference(&rrg, options, &traffic(&rrg));
            WidthProbe {
                width,
                success: routing.success,
                iterations: routing.iterations,
            }
        })
        .expect("routable");
        assert_eq!(result, reference);
        assert!(
            result
                .probes
                .iter()
                .any(|p| !p.success && p.iterations == options.max_iterations),
            "the log must hold a probe that failed after every iteration: {:?}",
            result.probes
        );
    }

    #[test]
    fn zero_max_width_finds_nothing() {
        let arch = Architecture::new(4, 3, 1);
        assert_eq!(
            min_channel_width(&arch, &RouterOptions::default(), 0, traffic),
            None
        );
    }

    #[test]
    fn relaxed_width_adds_twenty_percent() {
        assert_eq!(relaxed_width(10), 12);
        assert_eq!(relaxed_width(5), 6);
        assert_eq!(relaxed_width(1), 2);
        assert_eq!(relaxed_width(14), 17);
    }
}
