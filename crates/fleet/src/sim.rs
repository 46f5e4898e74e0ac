//! The discrete-event fleet engine.
//!
//! # Event model
//!
//! The fleet is partitioned into a **fixed** number of shards
//! (independent of the worker count): chip `i` belongs to shard
//! `i % n_shards`, and thread-lifetime `t` arrives at shard
//! `t % n_shards`. Each shard is a self-contained open queueing
//! system simulated *serially*: a binary heap of segment-completion
//! events merged against the shard's lazy arrival stream, with ties
//! broken by insertion sequence. Shards fan out over
//! [`SweepRunner::map`] (order-preserving) and merge in shard order,
//! so a full fleet run is **bit-identical at any `CISA_THREADS`** —
//! the same guarantee every other subsystem in this repository makes.
//!
//! # Power-cap accounting
//!
//! Chip power is tracked in integer milliwatts (exact arithmetic — no
//! floating-point drift across millions of events). Starting a thread
//! on a core requires `active_mw + core.peak_mw <= cap_mw`; the
//! chip's peak observed `active_mw` is recorded so tests can assert
//! no chip ever exceeds its cap at any event timestamp. Idle cores
//! burn [`IDLE_POWER_FRACTION`] of their peak (the same constant the
//! multicore evaluator charges for early-finishing cores).
//!
//! # Scheduling
//!
//! At every arrival and segment completion the shard runs a dispatch
//! pass: for up to [`FleetConfig::dispatch_window`] queued threads
//! (FIFO order), it builds one [`Candidate`] per idle power-feasible
//! core and asks the policy to choose. Each successful placement
//! restarts the pass (power headroom changed); the pass ends when no
//! queued thread in the window can be placed.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

use cisa_explore::{par_map, SweepRunner};
use cisa_power::CLOCK_HZ;
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::chips::FleetSpec;
use crate::migration::{class_latency_cycles, MigrationMatrix, MIGRATION_POWER_FRACTION};
use crate::policy::{Candidate, PlacementCtx, SchedulerPolicy};
use crate::report::{percentile, FleetReport, PolicyReport};
use crate::workload::{ArrivalParams, ArrivalStream, Workload};

/// Fraction of peak power an idle core draws (matches the multicore
/// evaluator's idle charge).
pub const IDLE_POWER_FRACTION: f64 = 0.3;

/// Fleet-run configuration (everything except the hardware roster,
/// which lives in [`FleetSpec`], and the policy).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetConfig {
    /// Arrival-stream seed.
    pub seed: u64,
    /// Thread-lifetimes to serve.
    pub n_threads: u64,
    /// Fixed shard count (clamped to the chip count). Results depend
    /// on this value but not on the worker count.
    pub n_shards: usize,
    /// Offered load as a fraction of the fleet's stable capacity
    /// (`0 < utilization < 1`; the capacity model is documented on
    /// [`FleetConfig::shard_rate`]).
    pub utilization: f64,
    /// Fraction of threads carrying a two-phase blended fingerprint.
    pub mix_fraction: f64,
    /// Segments per thread are uniform in `1..=max_segments`.
    pub max_segments: u32,
    /// Minimum per-segment work (units, log-uniform draw).
    pub work_min: f64,
    /// Maximum per-segment work (units).
    pub work_max: f64,
    /// Queued threads examined per dispatch pass (FIFO head window).
    pub dispatch_window: usize,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            seed: 0xF1EE7,
            n_threads: 20_000,
            n_shards: 64,
            utilization: 0.55,
            mix_fraction: 0.3,
            max_segments: 4,
            work_min: 60.0,
            work_max: 600.0,
            dispatch_window: 8,
        }
    }
}

impl FleetConfig {
    /// The arrival parameters shared by every shard.
    pub fn arrival_params(&self, n_phases: u16) -> ArrivalParams {
        ArrivalParams {
            seed: self.seed,
            n_phases,
            mix_fraction: self.mix_fraction,
            max_segments: self.max_segments,
            work_min: self.work_min,
            work_max: self.work_max,
        }
    }

    /// The effective shard count for a roster (never more shards than
    /// chips, never zero).
    pub fn effective_shards(&self, spec: &FleetSpec) -> usize {
        self.n_shards.clamp(1, spec.n_chips().max(1))
    }

    /// A shard's arrival rate in threads per cycle:
    /// `utilization x min(power-capped service capacity, static-random
    /// stability bound)`.
    ///
    /// The capacity term sums, per chip, `1 / mean_cpu` over the
    /// largest prefix of cores (cheapest peak first) that fits the
    /// chip cap — the sustainable unit rate with power-feasible
    /// concurrency — divided by the mean work per thread. The
    /// stability term bounds the rate at which *uniformly random*
    /// binding keeps every core's queue stable (`n_cores / (mean_work
    /// x slowest mean_cpu)`), so the baseline policy saturates but
    /// does not diverge.
    pub fn shard_rate(&self, spec: &FleetSpec, shard: usize, n_shards: usize) -> f64 {
        let mean_work = self.arrival_params(spec.n_phases as u16).mean_thread_work();
        let mut unit_rate = 0.0f64;
        let mut n_cores = 0u64;
        let mut worst_cpu = 0.0f64;
        for (ci, &cd) in spec.chips.iter().enumerate() {
            if ci % n_shards != shard {
                continue;
            }
            let chip = &spec.chip_designs[cd as usize];
            let mut cores: Vec<u16> = chip.cores.to_vec();
            cores.sort_by(|a, b| {
                spec.core_designs[*a as usize]
                    .peak_w
                    .total_cmp(&spec.core_designs[*b as usize].peak_w)
            });
            let mut active_w = 0.0;
            for &c in &cores {
                let d = &spec.core_designs[c as usize];
                if active_w + d.peak_w <= chip.cap_w {
                    active_w += d.peak_w;
                    unit_rate += 1.0 / spec.mean_cpu(c);
                }
            }
            for &c in &chip.cores {
                n_cores += 1;
                worst_cpu = worst_cpu.max(spec.mean_cpu(c));
            }
        }
        if n_cores == 0 {
            return 0.0;
        }
        let capacity = unit_rate / mean_work;
        let static_bound = n_cores as f64 / (mean_work * worst_cpu);
        self.utilization * capacity.min(static_bound)
    }
}

/// A segment-completion event. Ordered by time (total order over
/// `f64`) then insertion sequence, inverted for the min-heap.
#[derive(Debug, Clone, Copy)]
struct Event {
    time: f64,
    seq: u64,
    thread: u32,
    core: u32,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want earliest first.
        other
            .time
            .total_cmp(&self.time)
            .then(other.seq.cmp(&self.seq))
    }
}

/// Per-thread simulation state.
#[derive(Debug)]
struct Thr {
    workload: Workload,
    segments: Vec<f64>,
    arrival: f64,
    ready_since: f64,
    seg_idx: u32,
    cur_work: f64,
    executed: f64,
    bound: Option<u32>,
    last_core: Option<u32>,
    compiled_fs: u16,
    placed: bool,
}

/// Per-core simulation state.
#[derive(Debug)]
struct CoreSt {
    design: u16,
    chip: u32,
    peak_mw: u64,
    busy: Option<u32>,
    busy_cycles: f64,
}

/// Per-chip simulation state (power in exact integer milliwatts).
#[derive(Debug)]
struct ChipSt {
    cap_mw: u64,
    active_mw: u64,
    max_mw: u64,
}

/// Everything one shard reports back for the deterministic merge.
/// Public so the conservation test suite can assert shard-level
/// invariants directly.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardStats {
    /// Threads that arrived at this shard.
    pub arrivals: u64,
    /// Threads that completed (equals `arrivals`: shards drain).
    pub completed: u64,
    /// Total work demanded by completed threads (units).
    pub work_demanded: f64,
    /// Total work executed across all segment completions (units).
    pub work_executed: f64,
    /// Service cycles scheduled at dispatch (work x cpu + migration).
    pub service_scheduled: f64,
    /// Busy cycles accumulated at segment completion.
    pub busy_cycles: f64,
    /// Total energy (J): execution + migration + idle.
    pub energy_j: f64,
    /// Sum of response times (cycles) over completed threads.
    pub response_cycles: f64,
    /// Per-thread slowdowns vs the unloaded best fleet core, in
    /// completion order.
    pub slowdowns: Vec<f64>,
    /// Migrations taken, by class index.
    pub migrations: [u64; 3],
    /// Idle-core placements declined for lack of cap headroom.
    pub cap_blocked: u64,
    /// Shard makespan (cycles).
    pub makespan: f64,
    /// Max over chips of peak observed active power / cap.
    pub max_cap_utilization: f64,
}

/// One shard's serial event loop.
struct Shard<'a> {
    spec: &'a FleetSpec,
    mm: &'a MigrationMatrix,
    policy: &'a dyn SchedulerPolicy,
    cfg: &'a FleetConfig,
    cores: Vec<CoreSt>,
    chips: Vec<ChipSt>,
    threads: Vec<Thr>,
    ready: VecDeque<u32>,
    heap: BinaryHeap<Event>,
    seq: u64,
    now: f64,
    idle_cores: Vec<u32>,
    cands: Vec<Candidate>,
    stats: ShardStats,
}

/// Converts watts to exact integer milliwatts for cap accounting.
fn mw(w: f64) -> u64 {
    (w * 1000.0).round() as u64
}

impl<'a> Shard<'a> {
    fn new(
        spec: &'a FleetSpec,
        mm: &'a MigrationMatrix,
        policy: &'a dyn SchedulerPolicy,
        cfg: &'a FleetConfig,
        shard: usize,
        n_shards: usize,
    ) -> Self {
        let mut cores = Vec::new();
        let mut chips = Vec::new();
        for (ci, &cd) in spec.chips.iter().enumerate() {
            if ci % n_shards != shard {
                continue;
            }
            let design = &spec.chip_designs[cd as usize];
            let chip_idx = chips.len() as u32;
            chips.push(ChipSt {
                cap_mw: mw(design.cap_w),
                active_mw: 0,
                max_mw: 0,
            });
            for &c in &design.cores {
                cores.push(CoreSt {
                    design: c,
                    chip: chip_idx,
                    peak_mw: mw(spec.core_designs[c as usize].peak_w),
                    busy: None,
                    busy_cycles: 0.0,
                });
            }
        }
        Shard {
            spec,
            mm,
            policy,
            cfg,
            cores,
            chips,
            threads: Vec::new(),
            ready: VecDeque::new(),
            heap: BinaryHeap::new(),
            seq: 0,
            now: 0.0,
            idle_cores: Vec::new(),
            cands: Vec::new(),
            stats: ShardStats {
                arrivals: 0,
                completed: 0,
                work_demanded: 0.0,
                work_executed: 0.0,
                service_scheduled: 0.0,
                busy_cycles: 0.0,
                energy_j: 0.0,
                response_cycles: 0.0,
                slowdowns: Vec::new(),
                migrations: [0; 3],
                cap_blocked: 0,
                makespan: 0.0,
                max_cap_utilization: 0.0,
            },
        }
    }

    /// Cores that can ever run a thread alone under their chip's cap
    /// (the static policy's binding universe).
    fn eligible_cores(&self) -> Vec<u32> {
        self.cores
            .iter()
            .enumerate()
            .filter(|(_, c)| c.peak_mw <= self.chips[c.chip as usize].cap_mw)
            .map(|(i, _)| i as u32)
            .collect()
    }

    /// One dispatch pass: place queued threads until no head-window
    /// thread can be placed.
    fn dispatch(&mut self) {
        loop {
            self.idle_cores.clear();
            for (i, c) in self.cores.iter().enumerate() {
                if c.busy.is_none() {
                    self.idle_cores.push(i as u32);
                }
            }
            if self.idle_cores.is_empty() || self.ready.is_empty() {
                return;
            }
            let window = self.cfg.dispatch_window.min(self.ready.len());
            let mut placed: Option<(usize, usize)> = None;
            for qi in 0..window {
                let tid = self.ready[qi];
                if let Some(ci) = self.consider(tid) {
                    placed = Some((qi, ci));
                    break;
                }
            }
            let Some((qi, ci)) = placed else { return };
            let tid = self.ready.remove(qi).expect("index in range");
            let cand = self.cands[ci];
            self.start_segment(tid, &cand);
        }
    }

    /// Builds the candidate list for a thread (into `self.cands`) and
    /// asks the policy. Returns the chosen candidate index.
    fn consider(&mut self, tid: u32) -> Option<usize> {
        let thr = &self.threads[tid as usize];
        self.cands.clear();
        for &core_idx in &self.idle_cores {
            let core = &self.cores[core_idx as usize];
            let chip = &self.chips[core.chip as usize];
            if chip.active_mw + core.peak_mw > chip.cap_mw {
                self.stats.cap_blocked += 1;
                continue;
            }
            let design = &self.spec.core_designs[core.design as usize];
            let (mig_class, mig_cycles) = if !thr.placed || thr.last_core == Some(core_idx) {
                (None, 0.0)
            } else {
                let class = self
                    .mm
                    .class_for(&thr.workload, thr.compiled_fs, design.id.fs);
                (Some(class), class_latency_cycles(class))
            };
            self.cands.push(Candidate {
                core: core_idx,
                design: core.design,
                peak_w: design.peak_w,
                cpu: design.cpu(&thr.workload),
                epu: design.epu(&thr.workload),
                mig_class,
                mig_cycles,
            });
        }
        if self.cands.is_empty() {
            return None;
        }
        let remaining: f64 = thr.segments[thr.seg_idx as usize..].iter().sum();
        let ctx = PlacementCtx {
            remaining_work: remaining,
            bound_core: thr.bound,
        };
        self.policy.choose(&ctx, &self.cands)
    }

    /// Starts the thread's next segment on the chosen core.
    fn start_segment(&mut self, tid: u32, cand: &Candidate) {
        let thr = &mut self.threads[tid as usize];
        let work = thr.segments[thr.seg_idx as usize];
        thr.cur_work = work;
        let design = &self.spec.core_designs[cand.design as usize];
        if let Some(class) = cand.mig_class {
            self.stats.migrations[class.index()] += 1;
            // A native migration runs the existing image unmodified;
            // transforming migrations rewrite the image for the
            // destination's feature set, which becomes the new
            // compiled-for set.
            if class != cisa_migrate::MigrationClass::Native {
                thr.compiled_fs = design.id.fs;
            }
        } else if !thr.placed {
            thr.compiled_fs = design.id.fs;
            thr.placed = true;
        }
        thr.last_core = Some(cand.core);
        let wait = self.now - thr.ready_since;
        if wait > 0.0 {
            cisa_obs::hist("fleet/queue_cycles", wait as u64);
        }
        let service = work * cand.cpu + cand.mig_cycles;
        self.stats.service_scheduled += service;
        self.stats.energy_j +=
            work * cand.epu + cand.mig_cycles / CLOCK_HZ * MIGRATION_POWER_FRACTION * design.peak_w;
        let core = &mut self.cores[cand.core as usize];
        core.busy = Some(tid);
        core.busy_cycles += service;
        let chip = &mut self.chips[core.chip as usize];
        chip.active_mw += core.peak_mw;
        chip.max_mw = chip.max_mw.max(chip.active_mw);
        self.seq += 1;
        self.heap.push(Event {
            time: self.now + service,
            seq: self.seq,
            thread: tid,
            core: cand.core,
        });
    }

    /// Processes one segment completion.
    fn complete_segment(&mut self, ev: Event) {
        let core = &mut self.cores[ev.core as usize];
        debug_assert_eq!(core.busy, Some(ev.thread));
        core.busy = None;
        let chip = &mut self.chips[core.chip as usize];
        chip.active_mw -= core.peak_mw;
        let thr = &mut self.threads[ev.thread as usize];
        self.stats.work_executed += thr.cur_work;
        thr.executed += thr.cur_work;
        thr.seg_idx += 1;
        thr.last_core = Some(ev.core);
        if (thr.seg_idx as usize) == thr.segments.len() {
            self.stats.completed += 1;
            let response = self.now - thr.arrival;
            self.stats.response_cycles += response;
            self.stats.work_demanded += thr.executed;
            let ideal = thr.executed * self.spec.best_cpu(&thr.workload);
            let slowdown = response / ideal;
            self.stats.slowdowns.push(slowdown);
            cisa_obs::hist("fleet/slowdown_centi", (slowdown * 100.0) as u64);
            // Free the per-thread segment storage; the slot stays (ids
            // are dense) but costs only the struct itself.
            thr.segments = Vec::new();
        } else {
            thr.ready_since = self.now;
            self.ready.push_back(ev.thread);
        }
    }

    /// Runs the shard to completion and returns its stats.
    fn run(mut self, shard: usize, n_shards: usize) -> ShardStats {
        let params = self.cfg.arrival_params(self.spec.n_phases as u16);
        let per_shard = self.cfg.n_threads / n_shards as u64
            + u64::from((shard as u64) < self.cfg.n_threads % n_shards as u64);
        let rate = self.cfg.shard_rate(self.spec, shard, n_shards);
        let eligible = self.eligible_cores();
        assert!(
            !eligible.is_empty() || per_shard == 0,
            "shard {shard} has no core that fits its chip cap"
        );
        let mut arrivals = ArrivalStream::new(
            params,
            shard as u64,
            shard as u64,
            n_shards as u64,
            per_shard,
            rate,
        );
        let mut next_arrival = arrivals.next();
        loop {
            let take_arrival = match (&next_arrival, self.heap.peek()) {
                (Some(a), Some(e)) => a.arrival_cycles < e.time,
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => break,
            };
            if take_arrival {
                let spec = next_arrival.take().expect("checked above");
                next_arrival = arrivals.next();
                self.now = spec.arrival_cycles;
                self.stats.arrivals += 1;
                let mut rng = SmallRng::seed_from_u64(
                    self.cfg.seed ^ spec.id.wrapping_mul(0x9E37_79B9_7F4A_7C15),
                );
                let bound = self.policy.bind_on_arrival(&mut rng, &eligible);
                let tid = self.threads.len() as u32;
                self.threads.push(Thr {
                    workload: spec.workload,
                    segments: spec.segments,
                    arrival: spec.arrival_cycles,
                    ready_since: spec.arrival_cycles,
                    seg_idx: 0,
                    cur_work: 0.0,
                    executed: 0.0,
                    bound,
                    last_core: None,
                    compiled_fs: 0,
                    placed: false,
                });
                self.ready.push_back(tid);
            } else {
                let ev = self.heap.pop().expect("checked above");
                self.now = ev.time;
                self.complete_segment(ev);
            }
            self.dispatch();
        }
        self.stats.makespan = self.now;
        // Busy cycles come from the per-core accumulators; at drain
        // they must equal the service cycles scheduled at dispatch
        // (the conservation suite asserts this).
        self.stats.busy_cycles = self.cores.iter().map(|c| c.busy_cycles).sum();
        // Idle energy over the shard's lifetime.
        for c in &self.cores {
            let idle = (self.stats.makespan - c.busy_cycles).max(0.0);
            let peak = self.spec.core_designs[c.design as usize].peak_w;
            self.stats.energy_j += idle / CLOCK_HZ * IDLE_POWER_FRACTION * peak;
        }
        self.stats.max_cap_utilization = self
            .chips
            .iter()
            .map(|c| c.max_mw as f64 / c.cap_mw as f64)
            .fold(0.0, f64::max);
        self.stats
    }
}

/// Simulates one shard of the fleet (exposed for the test suites; use
/// [`simulate_fleet`] for full runs).
pub fn simulate_shard(
    spec: &FleetSpec,
    mm: &MigrationMatrix,
    policy: &dyn SchedulerPolicy,
    cfg: &FleetConfig,
    shard: usize,
    n_shards: usize,
) -> ShardStats {
    Shard::new(spec, mm, policy, cfg, shard, n_shards).run(shard, n_shards)
}

/// Runs the full fleet under one policy: shards fan out on the
/// runner, merge in shard order. Bit-identical at any worker count.
pub fn simulate_fleet(
    spec: &FleetSpec,
    mm: &MigrationMatrix,
    policy: &dyn SchedulerPolicy,
    cfg: &FleetConfig,
    runner: &SweepRunner,
) -> PolicyReport {
    let n_shards = cfg.effective_shards(spec);
    let shard_ids: Vec<usize> = (0..n_shards).collect();
    let outs = par_map(&shard_ids, runner.threads(), |&s| {
        let _span = cisa_obs::root_span("fleet/shard");
        simulate_shard(spec, mm, policy, cfg, s, n_shards)
    });
    merge(policy.name(), &outs)
}

/// Runs every policy over the same fleet and stream; returns the
/// bundled report (first policy is the gains baseline).
pub fn run_policies(
    spec: &FleetSpec,
    mm: &MigrationMatrix,
    policies: &[&dyn SchedulerPolicy],
    cfg: &FleetConfig,
    runner: &SweepRunner,
) -> FleetReport {
    let reports = policies
        .iter()
        .map(|p| simulate_fleet(spec, mm, *p, cfg, runner))
        .collect();
    FleetReport {
        n_chips: spec.n_chips() as u64,
        n_threads: cfg.n_threads,
        n_shards: cfg.effective_shards(spec) as u64,
        seed: cfg.seed,
        matrix_classes: mm.class_counts(),
        policies: reports,
    }
}

/// Deterministic shard-order merge into one [`PolicyReport`].
fn merge(policy: &str, outs: &[ShardStats]) -> PolicyReport {
    let mut arrivals = 0u64;
    let mut completed = 0u64;
    let mut total_work = 0.0f64;
    let mut energy = 0.0f64;
    let mut response = 0.0f64;
    let mut migrations = [0u64; 3];
    let mut cap_blocked = 0u64;
    let mut makespan = 0.0f64;
    let mut max_cap = 0.0f64;
    let mut slowdowns: Vec<f64> = Vec::new();
    for s in outs {
        arrivals += s.arrivals;
        completed += s.completed;
        total_work += s.work_executed;
        energy += s.energy_j;
        response += s.response_cycles;
        for (m, v) in migrations.iter_mut().zip(s.migrations) {
            *m += v;
        }
        cap_blocked += s.cap_blocked;
        makespan = makespan.max(s.makespan);
        max_cap = max_cap.max(s.max_cap_utilization);
        slowdowns.extend_from_slice(&s.slowdowns);
    }
    slowdowns.sort_by(f64::total_cmp);
    let migrations_total = migrations.iter().sum();
    let energy_per_unit = if total_work > 0.0 {
        energy / total_work
    } else {
        0.0
    };
    let mean_response_s = if completed > 0 {
        response / completed as f64 / CLOCK_HZ
    } else {
        0.0
    };
    cisa_obs::counter("fleet/arrivals", arrivals);
    cisa_obs::counter("fleet/completions", completed);
    cisa_obs::counter("fleet/migrations", migrations_total);
    cisa_obs::counter("fleet/migrations/native", migrations[0]);
    cisa_obs::counter("fleet/migrations/transforming", migrations[1]);
    cisa_obs::counter("fleet/migrations/state_transforming", migrations[2]);
    cisa_obs::counter("fleet/cap_blocked", cap_blocked);
    PolicyReport {
        policy: policy.to_string(),
        arrivals,
        completed,
        total_work,
        makespan_cycles: makespan,
        throughput_units_per_s: if makespan > 0.0 {
            total_work / (makespan / CLOCK_HZ)
        } else {
            0.0
        },
        energy_j: energy,
        energy_per_unit_j: energy_per_unit,
        mean_response_s,
        edp: energy_per_unit * mean_response_s,
        p50_slowdown: percentile(&slowdowns, 0.50),
        p99_slowdown: percentile(&slowdowns, 0.99),
        max_slowdown: slowdowns.last().copied().unwrap_or(0.0),
        migrations,
        migrations_total,
        cap_blocked,
        max_cap_utilization: max_cap,
    }
}
