//! Everything a run sends, generated from the workload seed before the
//! server starts: data sets, query rectangles, and the encoded request
//! bodies. The server only ever receives these generated inputs.

use dpsd_core::geometry::{Point, Rect};
use dpsd_core::stream::{EpsilonSchedule, StreamConfig};
use dpsd_core::tree::PsdConfig;
use dpsd_data::synthetic::{tiger_substitute, TIGER_DOMAIN};
use dpsd_data::workload::PAPER_SHAPES;
use dpsd_serve::workload::SplitMix64;
use serde::Value;

/// Base tenant, queried by read-hot and read-cold.
pub const BASE: &str = "base";
/// The data owner's tenant, re-published by write-mix.
pub const OWNER: &str = "owner";
/// The sliding-window stream tenant.
pub const FEED: &str = "feed";

/// Seeds of the two fixed data sets. Like the paper's TIGER data, the
/// base and owner point sets are the same in every run; the workload
/// seed picks the queries, the noise seeds and the feed's stream.
const BASE_DATA_SEED: u64 = 2012;
const OWNER_DATA_SEED: u64 = 2013;
const BASE_NOISE_SEED: u64 = 2014;

/// Privacy budget of every release.
pub const EPSILON: f64 = 0.5;
/// Rectangles per `POST /query/batch`.
pub const BATCH: usize = 100;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ReadHot,
    ReadCold,
    WriteMix,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::ReadHot, Workload::ReadCold, Workload::WriteMix];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ReadHot => "read-hot",
            Workload::ReadCold => "read-cold",
            Workload::WriteMix => "write-mix",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Sizes of one deployment. [`Scale::full`] is the benchmark;
/// [`Scale::small`] is the self-test's short configuration.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    pub base_points: usize,
    pub base_height: usize,
    pub owner_points: usize,
    pub owner_height: usize,
    pub cache_capacity: usize,
    /// Distinct rects in the read-hot pool (fits in the cache).
    pub hot_pool: usize,
    /// Distinct rects read-cold cycles through (2x the cache, so an
    /// LRU never hits).
    pub cold_cycle: usize,
    /// Distinct rects that fill the cache before read-cold is timed.
    pub cold_fill: usize,
    /// Distinct rects in write-mix's hotspot pool.
    pub mix_pool: usize,
    /// Pre-encoded batches per read-hot / write-mix connection.
    pub batches_per_conn: usize,
    pub feed_height: usize,
    pub epoch_points: u64,
    pub window: u64,
    /// Points per ingest request; unaligned with `epoch_points`.
    pub ingest_points: usize,
    /// Distinct fresh-seed owner releases each set-up builds; writer
    /// cycle `c` publishes release `c % owner_releases`.
    pub owner_releases: usize,
    /// Distinct ingest bodies; the stream repeats them in order.
    pub feed_bodies: usize,
    /// Ingest requests per write-mix writer cycle.
    pub ingests_per_cycle: usize,
    /// Segments per run, each a full set-up and an equal share of the
    /// timed traffic; `setup_s` is the median of their set-ups.
    pub setup_reps: usize,
    /// Batches per connection the traced replay runs after set-up
    /// (read-hot, read-cold).
    pub replay_batches: usize,
    /// Reader batches the traced write-mix replay runs after each
    /// writer request, close to the wire run's read/write ratio.
    pub replay_reads_per_write: usize,
    /// Writer cycles the traced replay runs after set-up.
    pub replay_cycles: usize,
}

impl Scale {
    pub fn full() -> Scale {
        Scale {
            base_points: 400_000,
            base_height: 8,
            owner_points: 100_000,
            owner_height: 6,
            cache_capacity: 16_384,
            hot_pool: 8_192,
            cold_cycle: 32_768,
            cold_fill: 32_768,
            mix_pool: 1_024,
            batches_per_conn: 256,
            feed_height: 6,
            epoch_points: 5_000,
            window: 4,
            ingest_points: 1_700,
            owner_releases: 4,
            feed_bodies: 120,
            ingests_per_cycle: 3,
            setup_reps: 4,
            replay_batches: 300,
            replay_reads_per_write: 110,
            replay_cycles: 4,
        }
    }

    pub fn small() -> Scale {
        Scale {
            base_points: 20_000,
            base_height: 6,
            owner_points: 5_000,
            owner_height: 4,
            cache_capacity: 512,
            hot_pool: 128,
            cold_cycle: 2_048,
            cold_fill: 1_024,
            mix_pool: 64,
            batches_per_conn: 16,
            feed_height: 4,
            epoch_points: 500,
            window: 3,
            ingest_points: 170,
            owner_releases: 2,
            feed_bodies: 12,
            ingests_per_cycle: 3,
            setup_reps: 1,
            replay_batches: 20,
            replay_reads_per_write: 4,
            replay_cycles: 2,
        }
    }
}

/// One pre-encoded query batch.
pub struct Batch {
    pub path: String,
    pub tenant: &'static str,
    pub rects: Vec<Rect>,
    pub body: String,
}

/// The generated inputs of one run.
pub struct Plan {
    pub workload: Workload,
    pub scale: Scale,
    pub seed: u64,
    pub base_points: Vec<Point>,
    pub owner_points: Vec<Point>,
    /// The feed's points: the stream sends them in order,
    /// `ingest_points` per request, starting over after the last.
    pub feed_points: Vec<Point>,
    pub feed_config: StreamConfig<2>,
    pub feed_spec_body: String,
    pub ingest_bodies: Vec<String>,
    /// Ingest requests sent during set-up (enough to cross one epoch).
    pub setup_ingests: usize,
    /// Batches sent at the end of set-up to warm or fill the cache.
    pub warm: Vec<Batch>,
    /// Per connection, the batches it cycles through while timed.
    pub conns: Vec<Vec<Batch>>,
}

fn derive(seed: u64, stream: u64) -> u64 {
    SplitMix64::new(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15)).next_u64()
}

/// A paper-shaped rectangle (Section 8.1 shapes) placed uniformly in
/// the TIGER domain.
fn paper_rect(rng: &mut SplitMix64) -> Rect {
    let shape = PAPER_SHAPES[rng.below(PAPER_SHAPES.len())];
    let d = TIGER_DOMAIN;
    let x0 = d.min[0] + rng.next_f64() * (d.max[0] - d.min[0] - shape.width);
    let y0 = d.min[1] + rng.next_f64() * (d.max[1] - d.min[1] - shape.height);
    // dpsd-allow(no-panic-in-lib): finite corners with min <= max by construction, which is Rect::new's contract
    Rect::new(x0, y0, x0 + shape.width, y0 + shape.height).expect("paper rect")
}

fn rects(n: usize, seed: u64) -> Vec<Rect> {
    let mut rng = SplitMix64::new(seed);
    (0..n).map(|_| paper_rect(&mut rng)).collect()
}

/// Zipf(s) draws over `pool`, most popular first.
fn zipf_draws(pool: &[Rect], n: usize, s: f64, seed: u64) -> Vec<Rect> {
    let mut cdf = Vec::with_capacity(pool.len());
    let mut acc = 0.0;
    for k in 1..=pool.len() {
        acc += 1.0 / (k as f64).powf(s);
        cdf.push(acc);
    }
    let mut rng = SplitMix64::new(seed);
    (0..n)
        .map(|_| {
            let u = rng.next_f64() * acc;
            pool[cdf.partition_point(|&c| c < u).min(pool.len() - 1)]
        })
        .collect()
}

/// Compact JSON text, as the server's `serde_json` prints it.
pub fn to_json(value: &Value) -> String {
    // dpsd-allow(no-panic-in-lib): every value serialized here is built from finite numbers and strings, which always serialize
    serde_json::to_string(value).expect("finite JSON serializes")
}

fn number_array(values: impl Iterator<Item = f64>) -> Value {
    Value::Array(values.map(Value::Number).collect())
}

pub fn batch(tenant: &'static str, rects: Vec<Rect>) -> Batch {
    let body = Value::Object(vec![(
        "rects".to_string(),
        Value::Array(
            rects
                .iter()
                .map(|r| number_array(r.min.iter().chain(r.max.iter()).copied()))
                .collect(),
        ),
    )]);
    Batch {
        path: format!("/synopses/{tenant}/query/batch"),
        tenant,
        rects,
        body: to_json(&body),
    }
}

fn batches(tenant: &'static str, rects: &[Rect]) -> Vec<Batch> {
    rects
        .chunks(BATCH)
        .map(|c| batch(tenant, c.to_vec()))
        .collect()
}

fn ingest_body(points: &[Point]) -> String {
    let body = Value::Object(vec![(
        "points".to_string(),
        Value::Array(
            points
                .iter()
                .map(|p| number_array(p.coords.iter().copied()))
                .collect(),
        ),
    )]);
    to_json(&body)
}

fn stream_spec_body(config: &StreamConfig<2>, epoch_points: u64) -> String {
    let d = config.domain;
    let body = Value::Object(vec![
        ("dims".to_string(), Value::Number(2.0)),
        (
            "domain".to_string(),
            number_array(d.min.iter().chain(d.max.iter()).copied()),
        ),
        ("height".to_string(), Value::Number(config.height as f64)),
        ("seed".to_string(), Value::Number(config.seed as f64)),
        (
            "epoch_points".to_string(),
            Value::Number(epoch_points as f64),
        ),
        (
            "schedule".to_string(),
            Value::Object(vec![
                ("kind".to_string(), Value::String("fixed".to_string())),
                ("epsilon".to_string(), Value::Number(EPSILON)),
            ]),
        ),
        ("budget_cap".to_string(), Value::Number(config.budget_cap)),
        (
            "window".to_string(),
            Value::Number(config.window.unwrap_or(1) as f64),
        ),
    ]);
    to_json(&body)
}

impl Plan {
    pub fn new(workload: Workload, scale: Scale, seed: u64) -> Plan {
        let s = scale;
        let setup_ingests = (s.epoch_points as usize).div_ceil(s.ingest_points) + 1;
        let feed_points = tiger_substitute(s.feed_bodies * s.ingest_points, derive(seed, 3));
        // The writer may run any number of cycles, so the stream's cap
        // is effectively unbounded (JSON numbers must stay finite).
        let feed_config = StreamConfig::new(
            TIGER_DOMAIN,
            s.feed_height,
            EpsilonSchedule::Fixed { epsilon: EPSILON },
            EPSILON * 1e9,
            derive(seed, 4) >> 12,
        )
        .with_window(s.window);
        let (warm, conns) = match workload {
            Workload::ReadHot => {
                let pool = rects(s.hot_pool, derive(seed, 10));
                let conns = (0..2)
                    .map(|c| {
                        let draws = zipf_draws(
                            &pool,
                            s.batches_per_conn * BATCH,
                            1.1,
                            derive(seed, 11 + c),
                        );
                        batches(BASE, &draws)
                    })
                    .collect();
                (batches(BASE, &pool), conns)
            }
            Workload::ReadCold => {
                let fill = rects(s.cold_fill, derive(seed, 20));
                let cycle = rects(s.cold_cycle, derive(seed, 21));
                let half = cycle.len() / 2;
                let conns = vec![batches(BASE, &cycle[..half]), batches(BASE, &cycle[half..])];
                (batches(BASE, &fill), conns)
            }
            Workload::WriteMix => {
                let pool = rects(s.mix_pool, derive(seed, 30));
                let mut warm = batches(OWNER, &pool);
                warm.extend(batches(FEED, &pool));
                let draws = zipf_draws(&pool, s.batches_per_conn * BATCH, 1.1, derive(seed, 31));
                let reader = draws
                    .chunks(BATCH)
                    .enumerate()
                    .map(|(i, c)| batch(if i % 2 == 0 { OWNER } else { FEED }, c.to_vec()))
                    .collect();
                (warm, vec![reader])
            }
        };
        Plan {
            workload,
            scale,
            seed,
            base_points: tiger_substitute(s.base_points, BASE_DATA_SEED),
            owner_points: tiger_substitute(s.owner_points, OWNER_DATA_SEED),
            ingest_bodies: feed_points
                .chunks(s.ingest_points)
                .map(ingest_body)
                .collect(),
            feed_spec_body: stream_spec_body(&feed_config, s.epoch_points),
            feed_points,
            feed_config,
            setup_ingests,
            warm,
            conns,
        }
    }

    /// The base tenant's build: kd-hybrid, medians for the top half.
    /// Its noise seed is fixed too, so `base` is the same published
    /// release in every run and read-hot/read-cold accuracy varies
    /// only with the queries.
    pub fn base_config(&self) -> PsdConfig<2> {
        let h = self.scale.base_height;
        PsdConfig::kd_hybrid(TIGER_DOMAIN, h, EPSILON, h / 2).with_seed(BASE_NOISE_SEED)
    }

    /// The owner's build of release `i`: the same data, a fresh noise
    /// seed per release.
    pub fn owner_config(&self, i: usize) -> PsdConfig<2> {
        let h = self.scale.owner_height;
        PsdConfig::kd_hybrid(TIGER_DOMAIN, h, EPSILON, h / 2)
            .with_seed(derive(self.seed, 100 + i as u64))
    }

    /// Points `start..end` of the feed's stream.
    pub fn feed_range(&self, start: usize, end: usize) -> Vec<Point> {
        let n = self.feed_points.len();
        (start..end).map(|k| self.feed_points[k % n]).collect()
    }

    /// Writer cycle `cycle` publishes JSON when even, `dpsd-bin/v1`
    /// when odd. Set-up runs cycles 0 and 1; write-mix continues from 2.
    pub fn cycle_is_json(cycle: usize) -> bool {
        cycle.is_multiple_of(2)
    }
}
