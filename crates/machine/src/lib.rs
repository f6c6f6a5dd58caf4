//! A calibrated terascale-machine performance model.
//!
//! Table 2.1 of the paper measures sustained Mflop/s per processor as the
//! LeMieux AlphaServer scales from 1 to 3000 PEs. This host has one core, so
//! (per the substitution policy in DESIGN.md) multi-PE timings are *modeled*:
//!
//! - per-rank compute time comes from an analytic flop count of the explicit
//!   update (the same count the paper used to report flop rates) divided by
//!   a single-PE rate *measured live* on this machine,
//! - per-rank communication time is an alpha-beta model of the Quadrics
//!   interconnect applied to the rank's real ghost-exchange volume from the
//!   real partition of the real mesh,
//! - the step time of the machine is `max over ranks (compute + comm)`, and
//!   parallel efficiency is the per-PE rate degradation relative to 1 PE —
//!   exactly the paper's metric.
//!
//! Everything physical about the run (mesh, partition, exchange volumes,
//! flops) is computed, not assumed; only the hardware constants are modeled.

#![forbid(unsafe_code)]

/// Analytic flop counts for the explicit solvers.
pub mod flops {
    /// Flops of one elastic hex element force evaluation in the *paper's*
    /// kernel: gather + two 24x24 dense mat-vecs (mul+add, one per Lamé
    /// modulus) + modulus combination + scatter-add. Kept for the Table 2.1
    /// LeMieux-shape model; the production solver now runs the template
    /// kernel ([`TEMPLATE_HEX_ELEMENT`]).
    pub const ELASTIC_HEX_ELEMENT: u64 = 2 * (24 * 24 * 2) + 3 * 24 + 24;

    /// Flops of one elastic hex element force evaluation in the production
    /// *template* kernel: the per-class combined stiffness
    /// `T = h (lambda K_L + mu K_M)` is precomputed once per distinct
    /// `(h, lambda, mu)`, so each element pays one gather-combine
    /// (`x = dt^2 u + s w`, 3 flops per entry), ONE 24x24 mat-vec
    /// (mul+add), and the scatter-subtract — half the flops of
    /// [`ELASTIC_HEX_ELEMENT`]'s two-matvec form.
    pub const TEMPLATE_HEX_ELEMENT: u64 = TEMPLATE_HEX_MATVEC + 3 * 24 + 24;

    /// The mat-vec share of [`TEMPLATE_HEX_ELEMENT`] — what one computed
    /// lane of the blocked sweep costs whether or not an element fills it.
    pub const TEMPLATE_HEX_MATVEC: u64 = 24 * 24 * 2;

    /// Per-node update flops of the central-difference step (3 components):
    /// the eq. (2.4) diagonal solve plus the two history combinations.
    pub const ELASTIC_NODE_UPDATE: u64 = 3 * 12;

    /// The initial-fill share of [`ELASTIC_NODE_UPDATE`]: damping increment
    /// `w = u_k - u_{k-1}`, source scaling and the owner's diagonal damping
    /// term (per node, 3 components).
    pub const ELASTIC_NODE_FILL: u64 = 3 * 5;

    /// The fused-tail share of [`ELASTIC_NODE_UPDATE`]: history combination
    /// and diagonal solve (per node, 3 components). Fill + tail = the whole
    /// node update.
    pub const ELASTIC_NODE_TAIL: u64 = 3 * 7;

    /// Per-boundary-face flops of the Stacey terms (damping + tangential
    /// coupling, 12x12 face kernel).
    pub const ABC_FACE: u64 = 12 * 12 * 2 + 24;

    /// Total flops of `n_steps` of the elastic solver as shipped (template
    /// element kernel). This is the count the harness reports for measured
    /// runs; the Table 2.1 model keeps the paper's per-element count.
    pub fn elastic_total(n_elements: u64, n_nodes: u64, n_abc_faces: u64, n_steps: u64) -> u64 {
        n_steps
            * (n_elements * TEMPLATE_HEX_ELEMENT
                + n_nodes * ELASTIC_NODE_UPDATE
                + n_abc_faces * ABC_FACE)
    }
}

/// Bytes-moved model of the explicit elastic step — the denominator of
/// arithmetic intensity.
///
/// Two tiers are counted. The *template sweep* (one combined 24x24 matrix,
/// 4608 bytes) is cache-resident across the elements of a class, so it
/// prices register/L1 traffic. The *state traffic* (gather/scatter of nodal
/// vectors, diagonal reads) streams from whatever level holds the
/// mesh-sized arrays and dominates DRAM movement at scale.
pub mod bytes {
    const F64: u64 = 8;

    /// One sweep over a single combined 24x24 stiffness template — half the
    /// matrix traffic of the paper's two canonical matrices, and shared by
    /// every element of the same `(h, lambda, mu)` class (a handful of
    /// templates on an octree mesh, L1-resident across a class run).
    pub const TEMPLATE_SWEEP: u64 = 24 * 24 * F64;

    /// Bytes moved by one element update of the production template kernel:
    /// one template sweep, the two gathered input vectors (`u_now` and the
    /// damping increment — every element takes the fused two-vector gather
    /// now, branch-free), the rhs read-modify-write, node ids and the
    /// per-element damping scale.
    pub fn template_element() -> u64 {
        TEMPLATE_SWEEP        // combined-template reads
            + 2 * 24 * F64    // gather u and w
            + 2 * 24 * F64    // rhs read-modify-write
            + 8 * 4           // node ids
            + F64 // per-element damping scale
    }

    /// Bytes moved per node by the fused initial fill alone: reads `u_now,
    /// u_prev, f_ext, damp_diag`, writes `w, rhs` — 6 f64 streams per dof.
    pub const ELASTIC_NODE_FILL: u64 = 3 * 6 * F64;

    /// Bytes moved per node by the fused tail alone: reads `rhs, u_now,
    /// u_prev, mass_f, cdiag_f, lhs_inv`, rewrites `rhs` — 7 f64 streams per
    /// dof. Fill + tail = 13 f64 streams per dof, the whole node update.
    pub const ELASTIC_NODE_TAIL: u64 = 3 * 7 * F64;

    /// Bytes moved per Stacey boundary face: gather 4 nodes x 3 comps of
    /// `u_now`, read-modify-write the same 12 rhs entries, face constants
    /// and node ids.
    pub const ABC_FACE: u64 = (12 + 2 * 12 + 6) * F64 + 4 * 4;

    /// Bytes moved per hanging node by one constraint pass (fold or
    /// interpolate): the slave's 3 dofs plus read-modify-write of up to 4
    /// masters' dofs.
    pub const HANGING_NODE_PASS: u64 = 3 * (1 + 2 * 4) * F64;

    /// Arithmetic intensity (flop/byte).
    pub fn arithmetic_intensity(flops: u64, bytes: u64) -> f64 {
        flops as f64 / bytes as f64
    }
}

/// Per-phase analytic cost model of one explicit elastic step — the
/// denominators of the paper-style per-phase breakdown (Section 4's tables
/// report exactly this: where the step's time, flops and traffic go).
///
/// Phase names match the solver's telemetry spans (`step/<phase>`), so a
/// measured wall-time breakdown can be joined with these counts to get
/// sustained flop rates and roofline efficiencies per phase.
pub mod phases {
    use super::{bytes, flops};

    /// Analytic flop/byte cost of one phase of one step.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub struct PhaseCost {
        /// Telemetry span suffix (`step/<name>`).
        pub name: &'static str,
        pub flops: u64,
        pub bytes: u64,
    }

    /// Shape of one rank's share of an elastic step.
    #[derive(Clone, Copy, Debug, Default)]
    pub struct ElasticStepShape {
        /// Elements with a nonzero Rayleigh beta (take the fused two-vector
        /// gather).
        pub n_damped: u64,
        pub n_undamped: u64,
        /// Nodes of the *full* mesh: the fill/tail passes are replicated
        /// over all dofs on every rank.
        pub n_nodes: u64,
        pub n_hanging: u64,
        /// Absorbing faces assembled by this rank.
        pub n_abc_faces: u64,
        /// Interface values (f64 count) exchanged per step; zero for a
        /// serial run.
        pub exchange_doubles: u64,
        /// The lanes the element matvec computes (`>= n_damped + n_undamped`:
        /// the sweep rounds every class run up to whole lane groups). Not a
        /// cost input — the phase flops count useful work — but the ratio
        /// elements / lanes is the share of executed matvec flops that is
        /// useful.
        pub n_lanes: u64,
    }

    /// Per-step costs of each phase of the fused elastic step, in execution
    /// order. Constraint passes (`fold`, `interp`) and the exchange move
    /// data but perform (next to) no flops; the exchange's byte count is the
    /// wire traffic, not a memory-hierarchy estimate.
    pub fn elastic_step_phases(shape: &ElasticStepShape) -> Vec<PhaseCost> {
        let hanging_flops = shape.n_hanging * 3 * 8; // 4 mul + 4 add per dof
        vec![
            PhaseCost {
                name: "fill",
                flops: shape.n_nodes * flops::ELASTIC_NODE_FILL,
                bytes: shape.n_nodes * bytes::ELASTIC_NODE_FILL,
            },
            PhaseCost {
                name: "elements",
                flops: (shape.n_damped + shape.n_undamped) * flops::TEMPLATE_HEX_ELEMENT,
                bytes: (shape.n_damped + shape.n_undamped) * bytes::template_element(),
            },
            PhaseCost {
                name: "abc",
                flops: shape.n_abc_faces * flops::ABC_FACE,
                bytes: shape.n_abc_faces * bytes::ABC_FACE,
            },
            PhaseCost {
                name: "fold",
                flops: hanging_flops,
                bytes: shape.n_hanging * bytes::HANGING_NODE_PASS,
            },
            PhaseCost { name: "exchange", flops: 0, bytes: shape.exchange_doubles * 8 },
            PhaseCost {
                name: "tail",
                flops: shape.n_nodes * flops::ELASTIC_NODE_TAIL,
                bytes: shape.n_nodes * bytes::ELASTIC_NODE_TAIL,
            },
            PhaseCost {
                name: "interp",
                flops: hanging_flops,
                bytes: shape.n_hanging * bytes::HANGING_NODE_PASS,
            },
        ]
    }
}

/// Hardware constants of the modeled machine (defaults ~ LeMieux: 1 GHz
/// Alpha EV68, 2 Gflop/s peak, Quadrics interconnect).
#[derive(Clone, Copy, Debug)]
pub struct MachineModel {
    /// Sustained flop rate of one PE on this kernel (flop/s). Calibrate with
    /// [`MachineModel::calibrated`] from a measured run.
    pub flops_per_sec_per_pe: f64,
    /// Network injection latency per message (s). Quadrics ~ 5 us.
    pub latency: f64,
    /// Per-link bandwidth (bytes/s). Quadrics ~ 250 MB/s sustained.
    pub bandwidth: f64,
    /// Per-step synchronization overhead that grows with log2(P) (s).
    pub sync_per_log_pe: f64,
    /// Peak flop rate of one PE (flop/s). EV68 at 1 GHz: 2 Gflop/s.
    pub peak_flops_per_pe: f64,
    /// Sustained memory bandwidth of one PE (bytes/s). ES45 node ~ 2 GB/s
    /// per-processor share.
    pub mem_bandwidth_per_pe: f64,
}

impl Default for MachineModel {
    fn default() -> Self {
        MachineModel {
            // 25% of the EV68's 2 Gflop/s peak — the paper's measured rate.
            flops_per_sec_per_pe: 0.5e9,
            latency: 5e-6,
            bandwidth: 250e6,
            sync_per_log_pe: 2e-6,
            peak_flops_per_pe: 2.0e9,
            mem_bandwidth_per_pe: 2.0e9,
        }
    }
}

/// Per-rank workload description for one time step.
#[derive(Clone, Debug)]
pub struct RankWork {
    /// Flops this rank executes per step.
    pub flops: u64,
    /// Number of neighbor ranks it exchanges with.
    pub n_neighbors: usize,
    /// Total bytes sent per step (sum over neighbors).
    pub bytes_sent: u64,
}

/// Predicted timing of one machine step.
#[derive(Clone, Copy, Debug)]
pub struct StepPrediction {
    /// Wall time of the step (max over ranks), seconds.
    pub step_time: f64,
    /// Aggregate sustained flop rate (flop/s).
    pub total_flop_rate: f64,
    /// Sustained Mflop/s per PE.
    pub mflops_per_pe: f64,
}

impl MachineModel {
    /// Build a model whose single-PE rate was measured on this host: pass
    /// the measured flops and wall seconds of a real single-rank run.
    pub fn calibrated(measured_flops: u64, measured_secs: f64) -> MachineModel {
        assert!(measured_secs > 0.0 && measured_flops > 0);
        MachineModel {
            flops_per_sec_per_pe: measured_flops as f64 / measured_secs,
            ..MachineModel::default()
        }
    }

    /// Predict one explicit time step of a partitioned mesh.
    pub fn predict_step(&self, ranks: &[RankWork]) -> StepPrediction {
        assert!(!ranks.is_empty());
        let p = ranks.len() as f64;
        let sync = self.sync_per_log_pe * p.log2().max(0.0);
        let mut worst = 0.0f64;
        let mut total_flops = 0u64;
        for r in ranks {
            let t_comp = r.flops as f64 / self.flops_per_sec_per_pe;
            let t_comm = r.n_neighbors as f64 * self.latency + r.bytes_sent as f64 / self.bandwidth;
            worst = worst.max(t_comp + t_comm + sync);
            total_flops += r.flops;
        }
        let total_flop_rate = total_flops as f64 / worst;
        StepPrediction {
            step_time: worst,
            total_flop_rate,
            mflops_per_pe: total_flop_rate / p / 1e6,
        }
    }

    /// Parallel efficiency of `pred` relative to a single-PE prediction —
    /// the paper's Table 2.1 metric (Mflop/s-per-PE degradation).
    pub fn efficiency(&self, single: &StepPrediction, pred: &StepPrediction) -> f64 {
        pred.mflops_per_pe / single.mflops_per_pe
    }

    /// Attainable flop rate (flop/s) of a kernel with arithmetic intensity
    /// `intensity` (flop/byte) under the roofline model:
    /// `min(peak, intensity * bandwidth)`.
    pub fn roofline_rate(&self, intensity: f64) -> f64 {
        self.peak_flops_per_pe.min(intensity * self.mem_bandwidth_per_pe)
    }

    /// Fraction of the roofline-attainable rate a measured kernel achieved.
    pub fn roofline_efficiency(&self, measured_flops_per_sec: f64, intensity: f64) -> f64 {
        measured_flops_per_sec / self.roofline_rate(intensity)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uniform_ranks(p: usize, elems_total: u64, shared_per_rank: u64) -> Vec<RankWork> {
        let per = elems_total / p as u64;
        (0..p)
            .map(|_| RankWork {
                flops: per * flops::ELASTIC_HEX_ELEMENT,
                n_neighbors: if p == 1 { 0 } else { 6.min(p - 1) },
                bytes_sent: if p == 1 { 0 } else { shared_per_rank * 24 },
            })
            .collect()
    }

    #[test]
    fn single_pe_runs_at_calibrated_rate() {
        let m = MachineModel::default();
        let pred = m.predict_step(&uniform_ranks(1, 1_000_000, 0));
        assert!((pred.mflops_per_pe - 500.0).abs() < 1.0, "{}", pred.mflops_per_pe);
    }

    #[test]
    fn efficiency_degrades_with_granularity() {
        // Fixed problem, growing P: fewer elements per PE -> comm overhead
        // share grows -> efficiency falls monotonically.
        let m = MachineModel::default();
        let single = m.predict_step(&uniform_ranks(1, 8_000_000, 0));
        let mut last_eff = 1.01;
        for &p in &[16usize, 128, 512, 2048] {
            // Surface-to-volume: shared nodes ~ (elems/P)^(2/3) * 6.
            let per = 8_000_000u64 / p as u64;
            let shared = 6 * (per as f64).powf(2.0 / 3.0) as u64;
            let pred = m.predict_step(&uniform_ranks(p, 8_000_000, shared));
            let eff = m.efficiency(&single, &pred);
            assert!(eff < last_eff, "P={p}: {eff} !< {last_eff}");
            assert!(eff > 0.5, "P={p}: unreasonably low {eff}");
            last_eff = eff;
        }
    }

    #[test]
    fn weak_scaling_stays_efficient() {
        // Constant elements per PE and constant surface: efficiency ~ 1.
        let m = MachineModel::default();
        let single = m.predict_step(&uniform_ranks(1, 100_000, 0));
        let per = 100_000u64;
        let shared = 6 * (per as f64).powf(2.0 / 3.0) as u64;
        let pred = m.predict_step(&uniform_ranks(1024, per * 1024, shared));
        let eff = m.efficiency(&single, &pred);
        assert!(eff > 0.85, "weak scaling efficiency {eff}");
    }

    #[test]
    fn imbalance_hurts() {
        let m = MachineModel::default();
        let balanced = m.predict_step(&uniform_ranks(4, 4_000_000, 1000));
        let mut skewed = uniform_ranks(4, 4_000_000, 1000);
        skewed[0].flops *= 2; // one overloaded rank
        let bad = m.predict_step(&skewed);
        assert!(bad.step_time > 1.4 * balanced.step_time);
        assert!(bad.mflops_per_pe < balanced.mflops_per_pe);
    }

    #[test]
    fn calibration_reproduces_measured_rate() {
        let m = MachineModel::calibrated(2_000_000_000, 4.0);
        assert!((m.flops_per_sec_per_pe - 5e8).abs() < 1.0);
    }

    #[test]
    fn phase_costs_are_consistent_with_the_aggregate_models() {
        // Fill + tail constants partition the node update exactly.
        assert_eq!(flops::ELASTIC_NODE_FILL + flops::ELASTIC_NODE_TAIL, flops::ELASTIC_NODE_UPDATE);
        // On a mesh without hanging nodes or exchange, the per-phase flops
        // sum to the aggregate elastic_total for one step.
        let shape = phases::ElasticStepShape {
            n_damped: 700,
            n_undamped: 300,
            n_nodes: 1331,
            n_abc_faces: 240,
            ..Default::default()
        };
        let total: u64 = phases::elastic_step_phases(&shape).iter().map(|p| p.flops).sum();
        assert_eq!(total, flops::elastic_total(1000, 1331, 240, 1));
        // And the fill/elements/tail bytes match the template kernel plus
        // the fill and tail streams (ABC faces ignored as a surface term).
        let by_name = |costs: &[phases::PhaseCost], n: &str| {
            costs.iter().find(|p| p.name == n).unwrap().bytes
        };
        let costs = phases::elastic_step_phases(&shape);
        let core = by_name(&costs, "fill") + by_name(&costs, "elements") + by_name(&costs, "tail");
        let node = bytes::ELASTIC_NODE_FILL + bytes::ELASTIC_NODE_TAIL;
        assert_eq!(core, 1000 * bytes::template_element() + 1331 * node);
    }

    #[test]
    fn template_kernel_halves_the_element_matvec() {
        // The combined template replaces the two canonical mat-vecs with
        // one: the 24x24 flops halve exactly, leaving the shared
        // gather-combine + scatter (3*24 + 24) unchanged.
        assert_eq!(
            flops::ELASTIC_HEX_ELEMENT - flops::TEMPLATE_HEX_ELEMENT,
            24 * 24 * 2,
            "template must save exactly one 24x24 mat-vec"
        );
    }

    #[test]
    fn flop_counts_scale_linearly() {
        let a = flops::elastic_total(100, 120, 10, 50);
        let b = flops::elastic_total(200, 240, 20, 50);
        assert_eq!(2 * a, b);
    }

    #[test]
    fn roofline_has_memory_and_compute_regimes() {
        let m = MachineModel::default();
        let ridge = m.peak_flops_per_pe / m.mem_bandwidth_per_pe;
        assert!(ridge > 0.0);
        // Below the ridge: bandwidth-limited and linear in intensity.
        assert!((m.roofline_rate(ridge / 2.0) - m.peak_flops_per_pe / 2.0).abs() < 1.0);
        // Above the ridge: flat at peak.
        assert!((m.roofline_rate(10.0 * ridge) - m.peak_flops_per_pe).abs() < 1.0);
        // The template element kernel sits above the node update in
        // intensity.
        let i_elem =
            bytes::arithmetic_intensity(flops::TEMPLATE_HEX_ELEMENT, bytes::template_element());
        let node_bytes = bytes::ELASTIC_NODE_FILL + bytes::ELASTIC_NODE_TAIL;
        let i_node = bytes::arithmetic_intensity(flops::ELASTIC_NODE_UPDATE, node_bytes);
        assert!(i_elem > i_node, "{i_elem} !> {i_node}");
        // The element kernel is memory-bound on the modeled machine, and the
        // paper's sustained 0.5 Gflop/s sits right at its DRAM roofline —
        // efficiency ~ 1 (slightly above is possible because the template
        // actually runs from cache).
        assert!(i_elem < ridge, "{i_elem} !< {ridge}");
        let eff = m.roofline_efficiency(0.5e9, i_elem);
        assert!(eff > 0.8 && eff < 1.5, "{eff}");
    }
}
