//! Cutset pipelining of gate-level netlists and the delay-imbalance metric.
//!
//! The paper's four direction-detector layouts (Table 3) were produced by
//! retiming the same design for increasingly aggressive clock targets, which
//! in practice inserts complete register ranks across the datapath.
//! [`pipeline_netlist`] reproduces that transformation structurally: it
//! levelises the combinational netlist, chooses `ranks` cut positions that
//! split the levels as evenly as possible, and inserts a flipflop on every
//! signal crossing a cut. The function of the circuit is preserved up to the
//! added latency of `ranks` cycles.

use std::collections::HashMap;

use glitch_netlist::{CellId, NetId, Netlist};

use crate::error::RetimeError;
use crate::mapping::NetMap;

/// Options for [`pipeline_netlist`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipelineOptions {
    /// Place the first register rank directly behind the primary inputs
    /// (this is the paper's baseline circuit: input registers only).
    pub register_inputs: bool,
}

impl Default for PipelineOptions {
    fn default() -> Self {
        PipelineOptions {
            register_inputs: true,
        }
    }
}

/// Result of [`pipeline_netlist`]: the transformed netlist plus bookkeeping.
#[derive(Debug, Clone)]
pub struct PipelinedNetlist {
    /// The pipelined netlist. Primary input and output nets keep the names
    /// they had in the original design.
    pub netlist: Netlist,
    /// Latency in clock cycles added by the inserted register ranks.
    pub latency: usize,
    /// Number of flipflops in the pipelined netlist.
    pub flipflop_count: usize,
    /// The stage index assigned to every original combinational cell.
    pub stage_of_cell: HashMap<CellId, usize>,
    /// Total old-net → new-net mapping: every original net's same-stage
    /// copy, plus the final registered net each primary output was brought
    /// to (which is where the output is observed, `latency` cycles late).
    pub mapping: NetMap,
}

/// Splits a purely combinational netlist into `ranks + 1` pipeline stages by
/// inserting `ranks` register ranks at levelisation cuts (one of them
/// directly behind the inputs when
/// [`PipelineOptions::register_inputs`] is set and `ranks > 0`).
///
/// With `ranks == 0` the netlist is rebuilt unchanged (zero flipflops).
///
/// # Errors
///
/// * [`RetimeError::NotCombinational`] if the input netlist already contains
///   flipflops.
/// * [`RetimeError::InvalidNetlist`] if it fails structural validation.
pub fn pipeline_netlist(
    netlist: &Netlist,
    ranks: usize,
    options: PipelineOptions,
) -> Result<PipelinedNetlist, RetimeError> {
    netlist.validate()?;
    if netlist.dff_count() > 0 {
        return Err(RetimeError::NotCombinational {
            dff_count: netlist.dff_count(),
        });
    }
    let levels = netlist.levelize()?;
    let depth = levels.depth();

    // Stage of a cell = number of cut boundaries at or below its level.
    // `internal` boundaries divide the level range (1..=depth); an input
    // rank (boundary before level 1) is added when requested.
    let input_rank = usize::from(options.register_inputs && ranks > 0);
    let internal = ranks - input_rank;
    let boundaries: Vec<usize> = (1..=internal)
        .map(|j| (j * depth).div_ceil(internal + 1).max(1))
        .collect();
    let stage_of_level =
        |level: usize| -> usize { input_rank + boundaries.iter().filter(|&&b| level > b).count() };

    let mut out = Netlist::new(format!("{}_p{}", netlist.name(), ranks));

    // Per original net, its same-stage copy: the primary inputs with
    // identical names first, each cell output as its cell is emitted.
    let mut new_net_of: Vec<Option<NetId>> = vec![None; netlist.net_count()];
    for &input in netlist.inputs() {
        new_net_of[input.index()] = Some(out.add_input(netlist.net(input).name()));
    }

    // Source stage of every original net (0 for primary inputs, the driving
    // cell's stage otherwise), filled in as cells are emitted.
    let mut stage_of_net = vec![0usize; netlist.net_count()];
    // Per original net, its registered versions: entry `k - 1` is the net
    // behind `k` registers. Chains grow one register at a time, so shorter
    // delays are shared.
    let mut delayed: Vec<Vec<NetId>> = vec![Vec::new(); netlist.net_count()];
    let mut stages: Vec<(CellId, usize)> = Vec::with_capacity(levels.order().len());

    let registered = |out: &mut Netlist,
                      new_net_of: &[Option<NetId>],
                      delayed: &mut [Vec<NetId>],
                      net: NetId,
                      extra: usize|
     -> NetId {
        let chain = &mut delayed[net.index()];
        if extra == 0 {
            return new_net_of[net.index()].expect("a net is copied before it is read");
        }
        if let Some(&cached) = chain.get(extra - 1) {
            return cached;
        }
        let mut current = chain
            .last()
            .copied()
            .unwrap_or_else(|| new_net_of[net.index()].expect("a net is copied before it is read"));
        for k in chain.len() + 1..=extra {
            let name = format!("{}_pipe{}", netlist.net(net).name(), k);
            current = out.dff(current, &name);
            chain.push(current);
        }
        current
    };

    for &cell_id in levels.order() {
        let cell = netlist.cell(cell_id);
        let level = levels.level(cell_id).unwrap_or(1);
        let stage = stage_of_level(level);
        stages.push((cell_id, stage));

        let mut new_inputs = Vec::with_capacity(cell.inputs().len());
        for &input in cell.inputs() {
            let src_stage = stage_of_net[input.index()];
            debug_assert!(stage >= src_stage, "stages must not decrease along wires");
            let extra = stage - src_stage;
            new_inputs.push(registered(
                &mut out,
                &new_net_of,
                &mut delayed,
                input,
                extra,
            ));
        }
        let mut new_outputs = Vec::with_capacity(cell.outputs().len());
        for &output in cell.outputs() {
            let id = out.add_net(netlist.net(output).name());
            new_net_of[output.index()] = Some(id);
            stage_of_net[output.index()] = stage;
            new_outputs.push(id);
        }
        out.add_cell(cell.kind(), cell.name(), new_inputs, new_outputs)
            .map_err(RetimeError::InvalidNetlist)?;
    }

    // Bring every primary output up to the final stage so all outputs appear
    // in the same cycle, then mark them. The mapping records where each
    // output ended up — possibly a `_pipeK` register output rather than the
    // same-stage copy.
    let final_stage = ranks;
    let mut output_of: HashMap<NetId, NetId> = HashMap::new();
    for &output in netlist.outputs() {
        let extra = final_stage - stage_of_net[output.index()];
        let new_net = registered(&mut out, &new_net_of, &mut delayed, output, extra);
        out.mark_output(new_net);
        output_of.insert(output, new_net);
    }

    // The forward table must stay total: every original net (input or cell
    // output) has a same-stage copy in `new_net_of`; nets that somehow have
    // neither (floating) get a fresh copy so the map never loses them.
    let forward: Vec<NetId> = new_net_of
        .iter()
        .enumerate()
        .map(|(old, new)| {
            new.unwrap_or_else(|| out.add_net(netlist.net(NetId::from_index(old)).name()))
        })
        .collect();

    let flipflop_count = out.dff_count();
    Ok(PipelinedNetlist {
        netlist: out,
        latency: ranks,
        flipflop_count,
        stage_of_cell: stages.into_iter().collect(),
        mapping: NetMap::new(forward, output_of, ranks),
    })
}

/// Total delay imbalance of a netlist under a unit-delay model: for every
/// combinational cell, the difference between the earliest and the latest
/// input arrival level, summed over all cells. Perfectly balanced circuits
/// (every cell's inputs arrive simultaneously) score 0 and cannot glitch
/// under a unit-delay model.
///
/// # Errors
///
/// Returns [`RetimeError::InvalidNetlist`] for structurally invalid or
/// cyclic netlists.
pub fn delay_imbalance(netlist: &Netlist) -> Result<u64, RetimeError> {
    netlist.validate()?;
    let levels = netlist.levelize()?;
    // Arrival level of a net: 0 for inputs and flipflop outputs, the driving
    // cell's level otherwise.
    let arrival = |net: NetId| -> u64 {
        match netlist.net(net).driver() {
            Some(pin) => levels.level(pin.cell).unwrap_or(0) as u64,
            None => 0,
        }
    };
    let mut total = 0u64;
    for cell_id in netlist.combinational_cells() {
        let cell = netlist.cell(cell_id);
        if cell.inputs().len() < 2 {
            continue;
        }
        let arrivals: Vec<u64> = cell.inputs().iter().map(|&n| arrival(n)).collect();
        let min = arrivals.iter().copied().min().unwrap_or(0);
        let max = arrivals.iter().copied().max().unwrap_or(0);
        total += max - min;
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use glitch_arith::{AdderStyle, ArrayMultiplier, RippleCarryAdder, WallaceTreeMultiplier};
    use glitch_sim::{ClockedSimulator, InputAssignment, UnitDelay};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn zero_ranks_is_an_identity_rebuild() {
        let adder = RippleCarryAdder::new(4, AdderStyle::CompoundCell);
        let piped = pipeline_netlist(&adder.netlist, 0, PipelineOptions::default()).unwrap();
        assert_eq!(piped.flipflop_count, 0);
        assert_eq!(piped.latency, 0);
        assert_eq!(piped.netlist.cell_count(), adder.netlist.cell_count());
        piped.netlist.validate().unwrap();
    }

    #[test]
    fn input_rank_only_registers_every_input() {
        let adder = RippleCarryAdder::new(8, AdderStyle::CompoundCell);
        let piped = pipeline_netlist(&adder.netlist, 1, PipelineOptions::default()).unwrap();
        // 8 + 8 + 1 input bits.
        assert_eq!(piped.flipflop_count, 17);
        assert_eq!(piped.latency, 1);
    }

    #[test]
    fn pipelined_multiplier_still_multiplies_after_the_latency() {
        let mult = ArrayMultiplier::new(4, AdderStyle::CompoundCell);
        for ranks in [0usize, 1, 2, 4] {
            let piped = pipeline_netlist(&mult.netlist, ranks, PipelineOptions::default()).unwrap();
            piped.netlist.validate().unwrap();
            piped
                .mapping
                .validate(&mult.netlist, &piped.netlist)
                .unwrap();
            assert_eq!(piped.mapping.latency(), ranks);
            // The mapping answers both directions: inputs by their
            // same-stage copy, outputs by their final registered net.
            let map_bus = |bus: &glitch_netlist::Bus, outputs: bool| {
                glitch_netlist::Bus::new(
                    bus.bits()
                        .iter()
                        .map(|&b| {
                            if outputs {
                                piped.mapping.output_net(b)
                            } else {
                                piped.mapping.new_net(b)
                            }
                        })
                        .collect(),
                )
            };
            let x = map_bus(&mult.x, false);
            let y = map_bus(&mult.y, false);
            let product = map_bus(&mult.product, true);
            let mut sim = ClockedSimulator::new(&piped.netlist, UnitDelay).unwrap();
            let mut rng = StdRng::seed_from_u64(2 + ranks as u64);
            let pairs: Vec<(u64, u64)> = (0..8)
                .map(|_| (rng.gen_range(0..16), rng.gen_range(0..16)))
                .collect();
            for (cycle, &(a, b)) in pairs.iter().enumerate() {
                sim.step(InputAssignment::new().with_bus(&x, a).with_bus(&y, b))
                    .unwrap();
                if cycle >= ranks {
                    let (ea, eb) = pairs[cycle - ranks];
                    assert_eq!(
                        sim.bus_value(&product).unwrap(),
                        ea * eb,
                        "ranks={ranks} cycle={cycle}"
                    );
                }
            }
        }
    }

    #[test]
    fn more_ranks_mean_more_flipflops_and_better_balance() {
        let mult = ArrayMultiplier::new(8, AdderStyle::CompoundCell);
        let mut last_ffs = 0usize;
        for ranks in [1usize, 2, 4, 8] {
            let piped = pipeline_netlist(&mult.netlist, ranks, PipelineOptions::default()).unwrap();
            assert!(
                piped.flipflop_count > last_ffs,
                "ranks {ranks}: {} flipflops not above {last_ffs}",
                piped.flipflop_count
            );
            last_ffs = piped.flipflop_count;
        }
    }

    #[test]
    fn sequential_input_is_rejected() {
        let mut nl = Netlist::new("seq");
        let a = nl.add_input("a");
        let q = nl.dff(a, "q");
        nl.mark_output(q);
        assert!(matches!(
            pipeline_netlist(&nl, 1, PipelineOptions::default()),
            Err(RetimeError::NotCombinational { dff_count: 1 })
        ));
    }

    #[test]
    fn imbalance_ranks_architectures_correctly() {
        let array = ArrayMultiplier::new(8, AdderStyle::CompoundCell);
        let wallace = WallaceTreeMultiplier::new(8, AdderStyle::CompoundCell);
        let array_imbalance = delay_imbalance(&array.netlist).unwrap();
        let wallace_imbalance = delay_imbalance(&wallace.netlist).unwrap();
        assert!(
            array_imbalance > wallace_imbalance,
            "array {array_imbalance} should exceed wallace {wallace_imbalance}"
        );
        // A single-gate circuit is perfectly balanced.
        let mut nl = Netlist::new("bal");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let y = nl.xor2(a, b, "y");
        nl.mark_output(y);
        assert_eq!(delay_imbalance(&nl).unwrap(), 0);
    }
}
