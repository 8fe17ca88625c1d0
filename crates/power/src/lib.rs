//! # glitch-power
//!
//! Dynamic power estimation for synchronous CMOS netlists, following
//! equation 1 and the measurement methodology of section 5 of the DATE'95
//! paper *Analysis and Reduction of Glitches in Synchronous Networks*:
//!
//! ```text
//! P_dyn = p_t · C_load · V_dd² · f
//! ```
//!
//! Power is decomposed into the paper's three components:
//!
//! 1. **combinational logic** — switched capacitance of every logic net,
//!    weighted by the simulated transition counts (so glitches cost real
//!    power),
//! 2. **flipflops** — a per-flipflop average power (the paper assumes 50%
//!    input activity), linear in the flipflop count,
//! 3. **clock line** — the clock capacitance grows with the number of
//!    flipflops and is charged every cycle.
//!
//! The default [`Technology`] is calibrated to a 0.8 µm / 5 V process so the
//! absolute numbers land in the same range as Table 3 of the paper; the
//! *shape* of the results (ratios between components, where the optimum
//! retiming lies) is what the reproduction relies on.
//!
//! ## Example
//!
//! ```
//! use glitch_power::Technology;
//!
//! let tech = Technology::cmos_0p8um_5v();
//! // 48 flipflops load the clock line with ~3.2 pF, as in Table 3.
//! let picofarad = tech.clock_capacitance(48) * 1e12;
//! assert!((picofarad - 3.2).abs() < 0.3);
//! ```

mod capacitance;
mod estimate;
mod tech;

pub use capacitance::CapacitanceModel;
pub use estimate::{estimate_power, estimate_power_from_counts, PowerBreakdown, PowerReport};
pub use tech::Technology;
