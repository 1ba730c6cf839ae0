//! The closed-loop driver shared by the four workloads: worker threads,
//! fixed-count warm-up, the sliced timed window and its summary.
//!
//! A window is cut into equal slices and every end-to-end number is taken
//! over the slices, at their quiet end (see [`QUIET`]), so what a noisy
//! neighbour does to most slices does not reach the result. Workers read the
//! clock themselves and file each operation under the slice in which it
//! finished; the coordinator wakes once per slice, to read the CPU time.

use std::sync::{Barrier, OnceLock};
use std::time::{Duration, Instant};

use crate::hist::Hist;
use crate::procfs;
use crate::spec::Better;
use crate::stats;
use crate::trace::Tracer;

/// Operation classes: each workload names one primary and one secondary.
pub const PRIMARY: usize = 0;
pub const SECONDARY: usize = 1;

/// Per-class strides: `[primary, secondary]`.
pub type Strides = [u64; 2];

/// One closed-loop caller. The driver alternates `draw` and `run`; nothing
/// but the seeded stream decides what the next operation is.
pub trait Worker: Send {
    fn thread_name(&self) -> String;

    /// Every `n`-th operation of a class is timed. Classes whose median is
    /// under 5 us use 16, so two clock reads are not a tenth of the
    /// operation; throughput counts every operation either way.
    fn sample_strides(&self) -> Strides;

    /// Every `n`-th operation of a class records spans in a traced window.
    fn trace_strides(&self) -> Strides;

    /// Takes the next operation from the input stream and returns its class.
    fn draw(&mut self) -> usize;

    /// Runs the drawn operation to completion, recording spans when a tracer
    /// is given. `false` means the operation failed.
    fn run(&mut self, tracer: Option<&Tracer>) -> bool;
}

#[derive(Clone)]
pub struct WindowSpec {
    pub slices: usize,
    pub slice: Duration,
    pub trace: bool,
}

#[derive(Clone, Default)]
pub struct SliceRec {
    pub ops: u64,
    pub hist: Hist,
}

struct Recorder {
    start: Instant,
    slice_ns: u64,
    slices: Vec<[SliceRec; 2]>,
    current: usize,
    attempted: u64,
    failed: u64,
}

impl Recorder {
    fn new(start: Instant, spec: &WindowSpec) -> Self {
        Self {
            start,
            slice_ns: (spec.slice.as_nanos() as u64).max(1),
            slices: vec![Default::default(); spec.slices],
            current: 0,
            attempted: 0,
            failed: 0,
        }
    }

    /// Files a timed operation; `false` once the window is over (the
    /// operation that crossed the end is not counted).
    fn timed(&mut self, class: usize, ok: bool, began: Instant, ended: Instant) -> bool {
        let slice = (ended.duration_since(self.start).as_nanos() as u64 / self.slice_ns) as usize;
        if slice >= self.slices.len() {
            return false;
        }
        self.current = slice;
        self.untimed(class, ok);
        if ok {
            let latency = ended.duration_since(began).as_nanos() as u64;
            self.slices[slice][class].hist.record(latency);
        }
        true
    }

    fn untimed(&mut self, class: usize, ok: bool) {
        self.attempted += 1;
        if ok {
            self.slices[self.current][class].ops += 1;
        } else {
            self.failed += 1;
        }
    }
}

fn drive<W: Worker>(worker: &mut W, recorder: &mut Recorder, tracer: Option<&Tracer>) {
    let sample = worker.sample_strides();
    let trace = worker.trace_strides();
    let mut seen = [0u64; 2];
    if recorder.slices.is_empty() {
        return;
    }
    loop {
        let class = worker.draw();
        let nth = seen[class];
        seen[class] += 1;
        let traced = tracer.filter(|_| nth % trace[class] == 0);
        if let Some(tracer) = traced {
            tracer.set_op(nth * 2 + class as u64);
        }
        if nth % sample[class] == 0 {
            let began = Instant::now();
            let ok = worker.run(traced);
            let ended = Instant::now();
            if !recorder.timed(class, ok, began, ended) {
                return;
            }
        } else {
            let ok = worker.run(traced);
            recorder.untimed(class, ok);
        }
    }
}

/// What one window measured, merged over its workers.
pub struct WindowOut {
    pub spec: WindowSpec,
    pub slices: Vec<[SliceRec; 2]>,
    pub attempted: u64,
    pub failed: u64,
    /// Process CPU seconds (user + system, every thread) per slice.
    pub slice_cpu_s: Vec<f64>,
    pub involuntary_switches: u64,
    pub tracers: Vec<Tracer>,
}

/// Runs `count` untimed operations on each worker, in parallel, and returns
/// how many failed.
pub fn warm_up<W: Worker>(workers: &mut [W], count: u64) -> u64 {
    std::thread::scope(|scope| {
        let handles: Vec<_> = workers
            .iter_mut()
            .map(|worker| {
                std::thread::Builder::new()
                    .name(worker.thread_name())
                    .spawn_scoped(scope, move || {
                        (0..count)
                            .filter(|_| {
                                worker.draw();
                                !worker.run(None)
                            })
                            .count() as u64
                    })
                    .expect("spawn warm-up thread")
            })
            .collect();
        handles
            .into_iter()
            .map(|handle| handle.join().expect("warm-up thread panicked"))
            .sum()
    })
}

/// Runs one timed window: every worker loops over its operations until the
/// last slice ends.
pub fn run_window<W: Worker>(workers: &mut [W], spec: &WindowSpec) -> WindowOut {
    let gate = Barrier::new(workers.len() + 1);
    let start = OnceLock::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = workers
            .iter_mut()
            .map(|worker| {
                let (gate, start) = (&gate, &start);
                let name = worker.thread_name();
                std::thread::Builder::new()
                    .name(name.clone())
                    .spawn_scoped(scope, move || {
                        gate.wait();
                        // The coordinator publishes the start between the
                        // two waits, so every worker shares one time origin.
                        gate.wait();
                        let start = *start.get().expect("start published");
                        let mut recorder = Recorder::new(start, spec);
                        let tracer = spec.trace.then(|| Tracer::new(&name));
                        drive(worker, &mut recorder, tracer.as_ref());
                        // Stay alive until the coordinator has read the
                        // per-thread counters: `/proc` forgets a thread's
                        // context switches when it exits.
                        gate.wait();
                        gate.wait();
                        (recorder, tracer)
                    })
                    .expect("spawn worker thread")
            })
            .collect();
        gate.wait();
        let switches_before = procfs::involuntary_switches();
        let cpu_before = procfs::cpu_seconds();
        let began = Instant::now();
        start.set(began).expect("start set once");
        gate.wait();
        let mut cpu_marks = vec![cpu_before];
        for slice in 1..=spec.slices as u32 {
            std::thread::sleep(
                (began + spec.slice * slice).saturating_duration_since(Instant::now()),
            );
            cpu_marks.push(procfs::cpu_seconds());
        }
        let slice_cpu_s = cpu_marks.windows(2).map(|pair| pair[1] - pair[0]).collect();
        // Every worker has finished its last operation and none has exited.
        gate.wait();
        let involuntary_switches = procfs::involuntary_switches().saturating_sub(switches_before);
        gate.wait();

        let mut out = WindowOut {
            spec: spec.clone(),
            slices: vec![Default::default(); spec.slices],
            attempted: 0,
            failed: 0,
            slice_cpu_s,
            involuntary_switches,
            tracers: Vec::new(),
        };
        for handle in handles {
            let (recorder, tracer) = handle.join().expect("worker thread panicked");
            for (merged, slice) in out.slices.iter_mut().zip(&recorder.slices) {
                for class in [PRIMARY, SECONDARY] {
                    merged[class].ops += slice[class].ops;
                    merged[class].hist.merge(&slice[class].hist);
                }
            }
            out.attempted += recorder.attempted;
            out.failed += recorder.failed;
            out.tracers.extend(tracer);
        }
        out
    })
}

/// Where among the slices a number is read, counted from the good side: the
/// slice a twentieth of the way from the best to the worst.
///
/// The host is shared, and it has two speeds. For tens of seconds to minutes
/// at a time every kind of code measured here (a long transaction's thousand
/// reads, a futex hand-off, a loopback round trip) runs 1.3 to 1.5 times
/// slower, then returns to what it was; the steps are the same size each time,
/// as if a neighbour took the other half of the core. Ten runs of the same
/// code at the median of their slices then spread 20 % to 35 % of their
/// median. The slow speed is often the commoner one for minutes on end, so
/// the median and even the decile follow the neighbour; the fast one shows up
/// in nearly every run as a few slices, and it is the program's own. The
/// twentieth rather than the best, so that one lucky slice is not the result.
pub const QUIET: f64 = 0.05;

/// A number taken over the slices: the quiet-end value, which is the one
/// reported, and the slices' own median and quartile spread around it. The
/// median goes into the result beside the value, and `compare` judges both:
/// a change that stalls some slices and spares the best moves only the median.
#[derive(Clone, Copy, Debug)]
pub struct Sliced {
    pub value: f64,
    pub median: f64,
    pub spread: f64,
}

pub fn sliced(values: &[f64], better: Better) -> Option<Sliced> {
    let q = match better {
        Better::Lower => QUIET,
        Better::Higher => 1.0 - QUIET,
    };
    Some(Sliced {
        value: stats::quantile(values, q)?,
        median: stats::median(values)?,
        spread: stats::spread(values),
    })
}

/// One operation class over a window.
pub struct ClassSummary {
    pub throughput_ops_s: Option<Sliced>,
    pub p50_us: Option<Sliced>,
    pub p90_us: Option<Sliced>,
    /// Whole-window tail percentiles (reported, never gated).
    pub p99_us: Option<f64>,
    pub p999_us: Option<f64>,
}

impl WindowOut {
    pub fn committed(&self) -> u64 {
        self.attempted - self.failed
    }

    /// CPU microseconds per committed operation of either class, over the
    /// slices in which any committed.
    pub fn cpu_us_per_op(&self) -> Option<Sliced> {
        let per_slice: Vec<f64> = self
            .slices
            .iter()
            .zip(&self.slice_cpu_s)
            .filter_map(|(slice, cpu_s)| {
                let ops = slice[PRIMARY].ops + slice[SECONDARY].ops;
                (ops > 0).then(|| cpu_s * 1e6 / ops as f64)
            })
            .collect();
        sliced(&per_slice, Better::Lower)
    }

    /// Adds a later window of the same shape: its slices follow this one's.
    pub fn append(&mut self, later: WindowOut) {
        self.slices.extend(later.slices);
        self.attempted += later.attempted;
        self.failed += later.failed;
        self.slice_cpu_s.extend(later.slice_cpu_s);
        self.involuntary_switches += later.involuntary_switches;
        self.tracers.extend(later.tracers);
    }

    pub fn class(&self, class: usize) -> ClassSummary {
        let slice_s = self.spec.slice.as_secs_f64();
        let per_slice = |f: &dyn Fn(&SliceRec) -> Option<f64>| -> Vec<f64> {
            self.slices.iter().filter_map(|s| f(&s[class])).collect()
        };
        let throughput = per_slice(&|s| Some(s.ops as f64 / slice_s));
        let quantile_us = |q: f64| per_slice(&|s| s.hist.quantile(q).map(|ns| ns / 1e3));
        let mut whole = Hist::new();
        for slice in &self.slices {
            whole.merge(&slice[class].hist);
        }
        ClassSummary {
            throughput_ops_s: sliced(&throughput, Better::Higher),
            p50_us: sliced(&quantile_us(0.5), Better::Lower),
            p90_us: sliced(&quantile_us(0.9), Better::Lower),
            p99_us: whole.quantile(0.99).map(|ns| ns / 1e3),
            p999_us: whole.quantile(0.999).map(|ns| ns / 1e3),
        }
    }
}
