//! Criterion microbenchmarks: the performance-critical paths of the
//! simulator (engine ticks, scheduling passes, packer, cooling step, ML
//! train/infer, FastSim event throughput).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use sraps_core::{Engine, SimConfig};
use sraps_data::{adastra, packer, WorkloadSpec};
use sraps_extsched::{ExtJob, FastSim};
use sraps_ml::{MlPipeline, PipelineConfig};
use sraps_sched::{
    BackfillKind, BuiltinScheduler, JobQueue, PolicyKind, QueuedJob, ResourceManager, SchedContext,
    SchedulerBackend,
};
use sraps_systems::presets;
use sraps_types::{AccountId, JobId, SimDuration, SimTime};

fn bench_engine(c: &mut Criterion) {
    let cfg = presets::adastra();
    let mut spec = WorkloadSpec::for_system(&cfg, 0.7, 3);
    spec.span = SimDuration::hours(6);
    let ds = adastra::synthesize(&cfg, &spec);
    let mut g = c.benchmark_group("engine");
    g.sample_size(10);
    g.bench_function("adastra_6h_fcfs_easy", |b| {
        b.iter(|| {
            let sim = SimConfig::new(cfg.clone(), "fcfs", "easy").unwrap();
            Engine::new(sim, &ds).unwrap().run().unwrap()
        })
    });
    g.bench_function("adastra_6h_replay", |b| {
        b.iter(|| {
            let sim = SimConfig::replay(cfg.clone());
            Engine::new(sim, &ds).unwrap().run().unwrap()
        })
    });
    g.bench_function("adastra_6h_replay_cooling", |b| {
        b.iter(|| {
            let sim = SimConfig::replay(cfg.clone()).with_cooling();
            Engine::new(sim, &ds).unwrap().run().unwrap()
        })
    });
    g.finish();
}

fn make_queue(n: usize) -> JobQueue {
    let mut q = JobQueue::new();
    for i in 0..n {
        q.push(QueuedJob {
            id: JobId(i as u64),
            account: AccountId((i % 32) as u32),
            submit: SimTime::seconds(i as i64),
            nodes: 1 + (i as u32 % 64),
            estimate: SimDuration::seconds(600 + (i as i64 % 7200)),
            priority: (i % 97) as f64,
            ml_score: Some((i % 31) as f64 / 31.0),
            recorded_start: SimTime::seconds(i as i64),
            recorded_nodes: None,
        });
    }
    q
}

fn bench_scheduler(c: &mut Criterion) {
    let mut g = c.benchmark_group("scheduler");
    for (name, policy, backfill) in [
        ("fcfs_none", PolicyKind::Fcfs, BackfillKind::None),
        ("fcfs_easy", PolicyKind::Fcfs, BackfillKind::Easy),
        (
            "priority_firstfit",
            PolicyKind::Priority,
            BackfillKind::FirstFit,
        ),
        ("sjf_easy", PolicyKind::Sjf, BackfillKind::Easy),
        (
            "fcfs_conservative",
            PolicyKind::Fcfs,
            BackfillKind::Conservative,
        ),
    ] {
        g.bench_function(format!("pass_1000q_{name}"), |b| {
            b.iter_batched(
                || (make_queue(1000), ResourceManager::new(512)),
                |(mut q, mut rm)| {
                    let mut s = BuiltinScheduler::new(policy, backfill);
                    let ctx = SchedContext {
                        running: &[],
                        accounts: None,
                    };
                    let mut placed = Vec::new();
                    s.schedule(SimTime::seconds(5_000), &mut q, &mut rm, &ctx, &mut placed)
                        .unwrap();
                    placed
                },
                BatchSize::SmallInput,
            )
        });
    }
    g.finish();
}

fn bench_packer(c: &mut Criterion) {
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    let mut rng = SmallRng::seed_from_u64(1);
    let specs: Vec<packer::JobSpec> = (0..5_000)
        .map(|_| packer::JobSpec {
            submit: SimTime::seconds(rng.gen_range(0..500_000)),
            duration: SimDuration::seconds(rng.gen_range(60..7200)),
            walltime: SimDuration::seconds(7200),
            nodes: rng.gen_range(1..128),
            user: 0,
            account: 0,
            priority: 0.0,
        })
        .collect();
    c.bench_function("packer/5000_jobs_1024_nodes", |b| {
        b.iter(|| packer::pack_jobs(specs.clone(), 1024))
    });
}

fn bench_fastsim(c: &mut Criterion) {
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    let mut rng = SmallRng::seed_from_u64(2);
    let jobs: Vec<ExtJob> = (0..5_000)
        .map(|i| ExtJob {
            job: QueuedJob {
                id: JobId(i),
                account: AccountId(0),
                submit: SimTime::seconds(rng.gen_range(0..1_296_000)),
                nodes: rng.gen_range(1..256),
                estimate: SimDuration::seconds(rng.gen_range(600..14_400)),
                priority: 0.0,
                ml_score: None,
                recorded_start: SimTime::ZERO,
                recorded_nodes: None,
            },
            duration: SimDuration::seconds(rng.gen_range(300..10_800)),
        })
        .collect();
    c.bench_function("fastsim/5000_jobs_15_days", |b| {
        b.iter(|| FastSim::run_trace(4096, jobs.clone()))
    });
}

fn bench_cooling(c: &mut Criterion) {
    let cfg = presets::frontier();
    c.bench_function("cooling/10k_steps", |b| {
        b.iter(|| {
            let mut plant = sraps_cooling::CoolingPlant::new(&cfg.cooling);
            let mut acc = 0.0;
            for i in 0..10_000 {
                let load = 15_000.0 + 5_000.0 * ((i % 100) as f64 / 100.0);
                acc += plant.step(SimDuration::seconds(15), load, load * 1.05).pue;
            }
            acc
        })
    });
}

fn bench_ml(c: &mut Criterion) {
    let cfg = presets::fugaku().scaled_to(1024);
    let mut spec = WorkloadSpec::for_system(&cfg, 0.8, 5);
    spec.span = SimDuration::hours(24);
    let ds = sraps_data::fugaku::synthesize(&cfg, &spec);
    let config = PipelineConfig::default();
    let mut g = c.benchmark_group("ml");
    g.sample_size(10);
    g.bench_function(format!("train_{}_jobs", ds.len()), |b| {
        b.iter(|| MlPipeline::train(ds.jobs(), config.clone()).unwrap())
    });
    let pipeline = MlPipeline::train(ds.jobs(), config).unwrap();
    g.bench_function("infer_1000_jobs", |b| {
        b.iter(|| {
            ds.jobs()
                .iter()
                .take(1000)
                .map(|j| pipeline.infer(j).score)
                .sum::<f64>()
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_engine,
    bench_scheduler,
    bench_packer,
    bench_fastsim,
    bench_cooling,
    bench_ml
);
criterion_main!(benches);
