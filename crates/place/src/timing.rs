//! The longest-path timing analyzer, before and after routing.
//!
//! Every folding cycle's critical path follows one recurrence over the
//! temporal design: an input edge arrives `upstream + hop` into the
//! cycle, and a LUT's output arrives `lut_delay` after its latest input.
//! Only the hop delay differs between the two timing passes of the flow.
//! The placer estimates it from Manhattan distance
//! ([`wire_delay_estimate`]); the router charges the routed connection's
//! wire delay. The caller passes the hop delay in, and this module owns
//! the edge classifier ([`input_edges`]) and the one forward pass
//! ([`analyze_timing`]).

use nanomap_arch::{SmbPos, TimingModel};
use nanomap_netlist::{FfId, LutId, SignalRef};
use nanomap_pack::{Packing, TemporalDesign};

/// Estimated interconnect delay for a hop of Manhattan distance `d`.
pub fn wire_delay_estimate(timing: &TimingModel, d: u32) -> f64 {
    match d {
        0 => timing.local_interconnect,
        1 => timing.wire_direct,
        _ => {
            // Cover the distance with length-4 segments plus length-1
            // remainder, or a single global line — whichever is faster.
            let segments =
                f64::from(d / 4) * timing.wire_length4 + f64::from(d % 4) * timing.wire_length1;
            segments.min(timing.wire_global)
        }
    }
}

/// Where a LUT input's signal comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeSource {
    /// Primary input or constant: no interconnect, no upstream arrival.
    Primary,
    /// Same-slice combinational fanin, which carries its arrival.
    Lut {
        /// Producing LUT.
        lut: LutId,
        /// SMB the signal leaves.
        smb: u32,
    },
    /// Read of a value stored in NRAM across folding cycles: the arrival
    /// restarts.
    Stored {
        /// LUT that produced the stored value (in an earlier slice).
        producer: LutId,
        /// SMB the stored value is read from.
        smb: u32,
    },
    /// Read of an architectural flip-flop: the arrival restarts.
    Ff {
        /// The flip-flop.
        ff: FfId,
        /// SMB the flip-flop lives in.
        smb: u32,
    },
}

impl EdgeSource {
    /// The SMB the signal departs from (`None` for primaries).
    pub fn smb(self) -> Option<u32> {
        match self {
            Self::Primary => None,
            Self::Lut { smb, .. } | Self::Stored { smb, .. } | Self::Ff { smb, .. } => Some(smb),
        }
    }
}

/// One timed input edge of a LUT.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InputEdge {
    /// Signal source.
    pub source: EdgeSource,
    /// Arrival already accumulated at the source output (ns).
    pub upstream_ns: f64,
    /// Interconnect delay of the hop into the consuming LUT (ns).
    pub hop_ns: f64,
}

impl InputEdge {
    /// Contribution of this edge to the consumer's input arrival.
    pub fn contribution(&self) -> f64 {
        self.upstream_ns + self.hop_ns
    }
}

/// The timed input edges of LUT `id`, in input order, given the output
/// arrivals computed so far (indexed by [`LutId::index`]).
///
/// `hop(id, source, from, to)` is the interconnect delay of a
/// non-primary edge leaving SMB `from` for the consumer's SMB `to`;
/// primary inputs and constants contribute `0.0`.
pub fn input_edges<'a>(
    design: &'a TemporalDesign<'a>,
    packing: &'a Packing,
    arrivals: &'a [f64],
    id: LutId,
    hop: &'a impl Fn(LutId, EdgeSource, u32, u32) -> f64,
) -> impl Iterator<Item = InputEdge> + 'a {
    let slice = design.slice_of(id);
    let to = packing.lut_smb[&id];
    design.net.lut(id).inputs.iter().map(move |input| {
        let (source, upstream_ns) = match *input {
            SignalRef::Lut(u) if design.slice_of(u) == slice => {
                let smb = packing.lut_smb[&u];
                (EdgeSource::Lut { lut: u, smb }, arrivals[u.index()])
            }
            SignalRef::Lut(u) => {
                let smb = packing
                    .stored_smb
                    .get(&u)
                    .copied()
                    .unwrap_or_else(|| packing.lut_smb[&u]);
                (EdgeSource::Stored { producer: u, smb }, 0.0)
            }
            SignalRef::Ff(ff) => {
                let smb = packing.ff_smb[&ff];
                (EdgeSource::Ff { ff, smb }, 0.0)
            }
            SignalRef::Input(_) | SignalRef::Const(_) => (EdgeSource::Primary, 0.0),
        };
        let hop_ns = source.smb().map_or(0.0, |from| hop(id, source, from, to));
        InputEdge {
            source,
            upstream_ns,
            hop_ns,
        }
    })
}

/// Headline timing of a temporal design.
#[derive(Debug, Clone, PartialEq)]
pub struct CircuitTiming {
    /// The longest combinational path over all folding cycles (ns).
    pub max_slice_path: f64,
    /// Folding-cycle period: worst path + reconfiguration + clocking (ns).
    pub cycle_period: f64,
    /// Circuit delay: `num_slices × cycle_period` (ns).
    pub circuit_delay: f64,
}

/// The forward longest-path pass: every LUT's output arrival (ns into
/// its folding cycle, indexed by [`LutId::index`]) and the headline
/// timing. `hop` charges each input edge as in [`input_edges`].
// A `TemporalDesign` schedules every LUT of a validated, acyclic network.
#[cfg_attr(not(test), allow(clippy::expect_used))]
pub fn analyze_timing(
    design: &TemporalDesign<'_>,
    packing: &Packing,
    timing: &TimingModel,
    hop: impl Fn(LutId, EdgeSource, u32, u32) -> f64,
) -> (CircuitTiming, Vec<f64>) {
    let net = design.net;
    let mut arrivals = vec![0.0; net.num_luts()];
    let mut max_slice_path = 0.0f64;
    for id in net.topo_order().expect("validated network") {
        let t = input_edges(design, packing, &arrivals, id, &hop)
            .map(|e| e.contribution())
            .fold(0.0f64, f64::max)
            + timing.lut_delay;
        arrivals[id.index()] = t;
        max_slice_path = max_slice_path.max(t);
    }
    let cycle_period = max_slice_path + timing.reconfiguration + timing.clocking;
    let headline = CircuitTiming {
        max_slice_path,
        cycle_period,
        circuit_delay: cycle_period * f64::from(design.num_slices()),
    };
    (headline, arrivals)
}

/// Estimates the post-placement delay of a packed design: each hop is
/// [`wire_delay_estimate`] of its Manhattan distance.
pub fn estimate_delay(
    design: &TemporalDesign<'_>,
    packing: &Packing,
    pos_of: &[SmbPos],
    timing: &TimingModel,
) -> CircuitTiming {
    let pos = |smb: u32| pos_of[smb as usize];
    let hop = |_, _, from, to| wire_delay_estimate(timing, pos(to).manhattan(pos(from)));
    analyze_timing(design, packing, timing, hop).0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_estimate_monotone_and_capped_by_global() {
        let t = TimingModel::nature_100nm();
        let mut last = 0.0;
        for d in 0..12 {
            let w = wire_delay_estimate(&t, d);
            assert!(w >= 0.0);
            if d > 1 {
                assert!(w <= t.wire_global + 1e-9, "d={d}");
            }
            if d >= 2 {
                assert!(w >= last - t.wire_global, "loose monotonicity");
            }
            last = w;
        }
        assert_eq!(wire_delay_estimate(&t, 1), t.wire_direct);
        assert_eq!(wire_delay_estimate(&t, 0), t.local_interconnect);
    }

    #[test]
    fn long_hops_use_global() {
        let t = TimingModel::nature_100nm();
        // 12 hops of length-4 would cost 3 * 0.55 = 1.65 > global 1.1.
        assert_eq!(wire_delay_estimate(&t, 12), t.wire_global);
    }
}
