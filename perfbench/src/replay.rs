//! The traced replay: a workload's deterministic request sequence
//! (its set-up, then a fixed prefix of its timed traffic) re-issued
//! in-process, in handler order, through the same public functions
//! `dpsd-serve`'s server calls. Only the glue between them is
//! re-implemented here. Every call into a module runs inside a span,
//! and exact work counts are taken at the same boundaries; because the
//! sequence depends on the seed alone, the counts repeat exactly.

use crate::plan::{Batch, Plan, Workload, BASE, FEED, OWNER};
use crate::stats::median;
use crate::trace::{now, Recorder};
use crate::wire::{feed_release_bytes, server_config};
use dpsd_core::exec::Parallelism;
use dpsd_core::flat::FlatSynopsis;
use dpsd_core::geometry::Rect;
use dpsd_core::postprocess::ols_postprocess;
use dpsd_core::stream::StreamIngestor;
use dpsd_core::synopsis::{ParallelQuery, SpatialSynopsis};
use dpsd_serve::http::{read_request, write_response, Request};
use dpsd_serve::stream::{StreamManager, StreamSpec};
use dpsd_serve::{AnySynopsis, CacheKey, ShardedCache, SynopsisRegistry};
use serde::Value;
use std::collections::{BTreeMap, HashSet};

/// Request ids of the timed prefix carry this bit.
const TIMED: u64 = 1 << 62;

/// Per-layer metrics: value, unit, and the number of samples behind it.
pub type Layers = BTreeMap<&'static str, (f64, &'static str, usize)>;

/// Inserts the median of `samples` (0 when there are none).
fn put(out: &mut Layers, name: &'static str, samples: &[f64], unit: &'static str) {
    out.insert(name, (median(samples).unwrap_or(0.0), unit, samples.len()));
}

/// Exact work counts of the timed prefix.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Counters {
    pub probes: u64,
    pub hits: u64,
    pub evictions: u64,
    pub misses: u64,
    pub nodes: u64,
    pub batches: u64,
    pub bytes_in: u64,
    pub bytes_out: u64,
    pub json_bytes: u64,
    pub bin_bytes: u64,
    pub releases: u64,
    pub resident_bytes: u64,
    /// Feed releases whose bytes differ from a from-scratch rebuild.
    pub release_mismatches: u64,
}

impl Counters {
    pub fn layers(&self, out: &mut Layers) {
        let per = |v: u64, n: u64| v as f64 / n.max(1) as f64;
        let (b, m, p) = (
            self.batches as usize,
            self.misses as usize,
            self.probes as usize,
        );
        let mut put = |name, value, unit, n| {
            out.insert(name, (value, unit, n));
        };
        put("cache.probes", self.probes as f64, "count", p);
        put("cache.hit_ratio", per(self.hits, self.probes), "ratio", p);
        put("cache.evictions", self.evictions as f64, "count", p);
        put("kernel.misses", self.misses as f64, "count", p);
        put(
            "kernel.nodes_per_query",
            per(self.nodes, self.misses),
            "count",
            m,
        );
        put(
            "kernel.resident_bytes",
            self.resident_bytes as f64,
            "bytes",
            1,
        );
        put(
            "http.bytes_in",
            per(self.bytes_in, self.batches),
            "bytes",
            b,
        );
        put(
            "http.bytes_out",
            per(self.bytes_out, self.batches),
            "bytes",
            b,
        );
        put("artifact.json_bytes", self.json_bytes as f64, "bytes", 1);
        put("artifact.bin_bytes", self.bin_bytes as f64, "bytes", 1);
        put("stream.releases", self.releases as f64, "count", 1);
    }
}

/// The exact bytes `dpsd_serve::client::Client` writes for a request.
fn raw_request(method: &str, path: &str, body: &[u8]) -> Vec<u8> {
    let mut raw = format!(
        "{method} {path} HTTP/1.1\r\nhost: dpsd-serve\r\ncontent-length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    raw.extend_from_slice(body);
    raw
}

fn coords(value: &Value) -> Result<Vec<f64>, String> {
    value
        .as_array()
        .ok_or("expected an array of numbers")?
        .iter()
        .map(|v| v.as_f64().ok_or_else(|| "expected a number".to_string()))
        .collect()
}

fn parse_rect(c: &[f64]) -> Result<Rect, String> {
    if c.len() != 4 {
        return Err("rect must have 4 numbers".into());
    }
    Rect::from_corners([c[0], c[1]], [c[2], c[3]]).map_err(|e| e.to_string())
}

fn body_json(request: &Request) -> Result<Value, String> {
    let text = std::str::from_utf8(&request.body).map_err(|e| e.to_string())?;
    serde_json::from_str(text).map_err(|e| e.to_string())
}

fn flat2(any: &AnySynopsis) -> Result<&FlatSynopsis, String> {
    match any {
        AnySynopsis::D2(s) => Ok(s),
        _ => Err("the benchmark publishes planar synopses only".into()),
    }
}

/// Reads a request back through `http::read_request`, inside the
/// request's root span.
fn read(
    rec: &mut Recorder,
    id: u64,
    root: usize,
    raw: &[u8],
    max_body: usize,
) -> Result<Request, String> {
    rec.span("http.read", id, Some(root), || {
        read_request(&mut &raw[..], max_body)
    })
    .map_err(|e| e.to_string())?
    .ok_or_else(|| "empty request".to_string())
}

/// Writes a 200 response through `http::write_response` into memory;
/// returns the bytes written.
fn write(rec: &mut Recorder, id: u64, root: usize, body: &str) -> usize {
    rec.span("http.write", id, Some(root), || {
        let mut out = Vec::with_capacity(body.len() + 128);
        write_response(&mut out, 200, body, true).map(|_| out.len())
    })
    .unwrap_or(0)
}

/// The in-process server state plus the recorder and counters.
struct Replayer<'p> {
    plan: &'p Plan,
    registry: SynopsisRegistry,
    cache: ShardedCache,
    streams: StreamManager,
    par: Parallelism,
    max_body: usize,
    rec: Recorder,
    next_id: u64,
    timed: bool,
    counters: Counters,
    next_ingest: usize,
    /// Owner builds: (build, ols, json encode, bin encode) in ms.
    owner_ms: Vec<[f64; 4]>,
    ingest_released: Vec<bool>,
}

fn ms_since(t: std::time::Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

impl<'p> Replayer<'p> {
    fn id(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id | if self.timed { TIMED } else { 0 }
    }

    fn publish(&mut self, tenant: &'static str, artifact: &[u8]) -> Result<(), String> {
        let json = !dpsd_core::flat::is_flat_artifact(artifact);
        let id = self.id();
        // The loads the handler performs inside `publish`, timed alone.
        if json {
            let text = std::str::from_utf8(artifact).map_err(|e| e.to_string())?;
            self.rec
                .span("json.artifact_parse", id, None, || {
                    serde_json::from_str::<Value>(text).map(|_| ())
                })
                .map_err(|e| e.to_string())?;
        }
        let load = match (tenant, json) {
            (BASE, _) => "registry.load_base",
            (_, true) => "registry.load_json",
            (_, false) => "registry.load_bin",
        };
        self.rec
            .span(load, id, None, || AnySynopsis::load(artifact).map(|_| ()))
            .map_err(|e| e.to_string())?;
        let raw = raw_request("POST", &format!("/synopses/{tenant}"), artifact);
        let root = self.rec.open("server.publish", id, None);
        let request = read(&mut self.rec, id, root, &raw, self.max_body)?;
        let name = if json || tenant == BASE {
            "registry.publish_other"
        } else {
            "registry.publish"
        };
        let (published, budget) = self
            .rec
            .span(name, id, Some(root), || {
                self.registry.publish(tenant, &request.body)
            })
            .map_err(|e| e.to_string())?;
        let cache = &self.cache;
        self.rec.span("cache.purge", id, Some(root), || {
            cache.purge_stale(tenant, published.version)
        });
        let body = serde_json::to_string(&Value::Object(vec![
            ("name".to_string(), Value::String(published.name.clone())),
            (
                "version".to_string(),
                Value::Number(published.version as f64),
            ),
            ("spent".to_string(), Value::Number(budget.spent)),
        ]))
        .map_err(|e| e.to_string())?;
        write(&mut self.rec, id, root, &body);
        self.rec.close(root);
        Ok(())
    }

    fn create_feed(&mut self) -> Result<(), String> {
        let id = self.id();
        let raw = raw_request(
            "POST",
            &format!("/synopses/{FEED}/stream"),
            self.plan.feed_spec_body.as_bytes(),
        );
        let root = self.rec.open("server.stream_create", id, None);
        let request = read(&mut self.rec, id, root, &raw, self.max_body)?;
        let spec = StreamSpec::from_value(&body_json(&request)?).map_err(|e| e.to_string())?;
        self.streams
            .create(FEED, &spec, &self.registry)
            .map_err(|e| e.to_string())?;
        write(&mut self.rec, id, root, "{}");
        self.rec.close(root);
        Ok(())
    }

    fn ingest(&mut self) -> Result<(), String> {
        let bodies = &self.plan.ingest_bodies;
        let body = &bodies[self.next_ingest % bodies.len()];
        self.next_ingest += 1;
        let id = self.id();
        let raw = raw_request("POST", &format!("/synopses/{FEED}/ingest"), body.as_bytes());
        let root = self.rec.open("server.ingest", id, None);
        let request = read(&mut self.rec, id, root, &raw, self.max_body)?;
        let points = self.rec.span("json.ingest_parse", id, Some(root), || {
            body_json(&request)?
                .get("points")
                .and_then(Value::as_array)
                .ok_or("missing points")?
                .iter()
                .map(coords)
                .collect::<Result<Vec<_>, String>>()
        })?;
        let (streams, registry, cache) = (&self.streams, &self.registry, &self.cache);
        let report = self
            .rec
            .span("stream.manager_ingest", id, Some(root), || {
                streams.ingest(FEED, &points, None, registry, cache)
            })
            .map_err(|e| e.to_string())?;
        self.ingest_released.push(!report.releases.is_empty());
        let body = format!("{{\"absorbed\":{}}}", report.absorbed);
        write(&mut self.rec, id, root, &body);
        self.rec.close(root);
        Ok(())
    }

    fn batch(&mut self, b: &Batch) -> Result<(), String> {
        let id = self.id();
        let raw = raw_request("POST", &b.path, b.body.as_bytes());
        let root = self.rec.open("server.query_batch", id, None);
        let request = read(&mut self.rec, id, root, &raw, self.max_body)?;
        let rects = self.rec.span("json.query_parse", id, Some(root), || {
            body_json(&request)?
                .get("rects")
                .and_then(Value::as_array)
                .ok_or("missing rects")?
                .iter()
                .map(|v| parse_rect(&coords(v)?))
                .collect::<Result<Vec<_>, String>>()
        })?;
        let registry = &self.registry;
        let published = self
            .rec
            .span("registry.get", id, Some(root), || registry.get(b.tenant))
            .ok_or("unknown tenant")?;
        let flat = flat2(&published.synopsis)?;
        let cache = &self.cache;
        let (mut answers, miss_idx, misses) = self.rec.span("cache.probe", id, Some(root), || {
            let mut answers = vec![0.0f64; rects.len()];
            let (mut idx, mut misses) = (Vec::new(), Vec::new());
            for (i, r) in rects.iter().enumerate() {
                match cache.get(&CacheKey::new(&published.name, published.version, r)) {
                    Some(hit) => answers[i] = hit,
                    None => {
                        idx.push(i);
                        misses.push(*r);
                    }
                }
            }
            (answers, idx, misses)
        });
        let par = self.par;
        let computed = self.rec.span("kernel.batch", id, Some(root), || {
            flat.query_batch_parallel(&misses, par)
        });
        let entries_before = cache.stats().entries as u64;
        self.rec.span("cache.insert", id, Some(root), || {
            for (&i, &a) in miss_idx.iter().zip(&computed) {
                answers[i] = a;
                cache.insert(
                    CacheKey::new(&published.name, published.version, &rects[i]),
                    a,
                );
            }
        });
        let body = self
            .rec
            .span("json.answer_encode", id, Some(root), || {
                serde_json::to_string(&Value::Object(vec![
                    ("name".to_string(), Value::String(published.name.clone())),
                    (
                        "version".to_string(),
                        Value::Number(published.version as f64),
                    ),
                    (
                        "answers".to_string(),
                        Value::Array(answers.iter().copied().map(Value::Number).collect()),
                    ),
                    (
                        "cache_hits".to_string(),
                        Value::Number((rects.len() - misses.len()) as f64),
                    ),
                ]))
            })
            .map_err(|e| e.to_string())?;
        let bytes_out = write(&mut self.rec, id, root, &body);
        self.rec.close(root);
        // The same misses through the sequential kernel: the gap to
        // `kernel.batch` is the exec layer's sharding overhead.
        let seq = self
            .rec
            .span("kernel.seq_batch", id, None, || flat.query_batch(&misses));
        if seq
            .iter()
            .map(|v| v.to_bits())
            .ne(computed.iter().map(|v| v.to_bits()))
        {
            return Err("sequential and parallel kernels disagree".into());
        }
        if self.timed {
            let c = &mut self.counters;
            let new_keys: HashSet<[u64; 4]> = misses
                .iter()
                .map(|r| [r.min[0], r.min[1], r.max[0], r.max[1]].map(f64::to_bits))
                .collect();
            c.evictions += entries_before + new_keys.len() as u64 - cache.stats().entries as u64;
            c.probes += rects.len() as u64;
            c.hits += (rects.len() - misses.len()) as u64;
            c.misses += misses.len() as u64;
            c.nodes += misses
                .iter()
                .map(|r| {
                    let (_, p) = flat.query_profiled(r);
                    (p.contained_per_level.iter().sum::<usize>() + p.partial_leaves) as u64
                })
                .sum::<u64>();
            c.batches += 1;
            c.bytes_in += raw.len() as u64;
            c.bytes_out += bytes_out as u64;
        }
        Ok(())
    }

    /// The data owner's cycle: build (then OLS and both encodings timed
    /// alone on the same tree), publish.
    fn owner_cycle(&mut self, cycle: usize) -> Result<(), String> {
        let config = self
            .plan
            .owner_config(cycle % self.plan.scale.owner_releases);
        let t = now();
        let tree = config
            .build(&self.plan.owner_points)
            .map_err(|e| e.to_string())?;
        let build = ms_since(t);
        let t = now();
        let posted = ols_postprocess(&tree);
        let ols = ms_since(t);
        let release = tree.release();
        let t = now();
        let json = release.to_json_string();
        let json_ms = ms_since(t);
        let t = now();
        let bin = release.to_flat_bytes();
        let bin_ms = ms_since(t);
        if posted.len() != tree.node_count() {
            return Err("OLS returned the wrong number of counts".into());
        }
        self.owner_ms.push([build, ols, json_ms, bin_ms]);
        if cycle == 0 {
            self.counters.json_bytes = json.len() as u64;
            self.counters.bin_bytes = bin.len() as u64;
        }
        if Plan::cycle_is_json(cycle) {
            self.publish(OWNER, json.as_bytes())
        } else {
            self.publish(OWNER, &bin)
        }
    }

    /// Replays the feed's ingested prefix through a fresh
    /// `StreamIngestor`, timing absorption and epoch releases, and
    /// checks every release against a from-scratch rebuild.
    fn stream_replay(&mut self, out: &mut Layers) -> Result<(), String> {
        let s = self.plan.scale;
        let n = self.next_ingest * s.ingest_points;
        let points = self.plan.feed_range(0, n);
        let mut ingestor =
            StreamIngestor::new(self.plan.feed_config.clone()).map_err(|e| e.to_string())?;
        let (mut absorb_ns, mut release_ms) = (0u128, Vec::new());
        let mut releases = Vec::new();
        for chunk in points.chunks(s.epoch_points as usize) {
            let t = now();
            for p in chunk {
                ingestor.absorb_from(*p, None).map_err(|e| e.to_string())?;
            }
            absorb_ns += t.elapsed().as_nanos();
            if chunk.len() as u64 == s.epoch_points {
                let t = now();
                let release = ingestor.release_epoch().map_err(|e| e.to_string())?;
                release_ms.push(ms_since(t));
                releases.push(release);
            }
        }
        for release in &releases {
            let same =
                release.synopsis.to_flat_bytes() == feed_release_bytes(self.plan, release.epoch)?;
            self.counters.release_mismatches += u64::from(!same);
        }
        self.counters.releases = releases.len() as u64;
        out.insert(
            "stream.absorb_ns_per_point",
            (absorb_ns as f64 / n.max(1) as f64, "ns", n),
        );
        put(out, "stream.epoch_release_ms", &release_ms, "ms");
        Ok(())
    }
}

/// What the replay measured.
pub struct Replay {
    pub layers: Layers,
    pub counters: Counters,
    pub spans: Recorder,
    /// Median server-side self time of a timed batch, summed over the
    /// handler's layers and glue, in µs.
    pub batch_server_us: f64,
}

pub fn replay(plan: &Plan) -> Result<Replay, String> {
    let config = server_config(plan);
    let mut r = Replayer {
        plan,
        registry: SynopsisRegistry::new(),
        cache: ShardedCache::new(config.cache_capacity),
        streams: StreamManager::new(),
        par: config.parallelism,
        max_body: config.max_body_bytes,
        rec: Recorder::new(true),
        next_id: 0,
        timed: false,
        counters: Counters::default(),
        next_ingest: 0,
        owner_ms: Vec::new(),
        ingest_released: Vec::new(),
    };
    let mut layers = Layers::new();

    // Set-up, as every wire set-up runs it.
    let t = now();
    let base = plan
        .base_config()
        .build(&plan.base_points)
        .map_err(|e| e.to_string())?
        .release();
    put(&mut layers, "build.base_ms", &[ms_since(t)], "ms");
    r.publish(BASE, &base.to_flat_bytes())?;
    r.owner_cycle(0)?;
    r.owner_cycle(1)?;
    r.create_feed()?;
    for _ in 0..plan.setup_ingests {
        r.ingest()?;
    }
    for b in &plan.warm {
        r.batch(b)?;
    }

    // The timed prefix, in a fixed handler order.
    r.timed = true;
    let s = plan.scale;
    match plan.workload {
        Workload::ReadHot | Workload::ReadCold => {
            for i in 0..s.replay_batches {
                for conn in &plan.conns {
                    r.batch(&conn[i % conn.len()])?;
                }
            }
        }
        Workload::WriteMix => {
            let reader = &plan.conns[0];
            let mut next = 0usize;
            let mut reads = |r: &mut Replayer| -> Result<(), String> {
                for _ in 0..s.replay_reads_per_write {
                    r.batch(&reader[next % reader.len()])?;
                    next += 1;
                }
                Ok(())
            };
            for cycle in 2..2 + s.replay_cycles {
                r.owner_cycle(cycle)?;
                reads(&mut r)?;
                for _ in 0..s.ingests_per_cycle {
                    r.ingest()?;
                    reads(&mut r)?;
                }
            }
        }
    }
    r.counters.resident_bytes = r
        .registry
        .list()
        .iter()
        .map(|p| flat2(&p.synopsis).map(|f| f.resident_bytes() as u64))
        .sum::<Result<u64, String>>()?;
    r.stream_replay(&mut layers)?;

    // Timings from the spans: read-path layers over the timed batches,
    // write-path layers over every publish and ingest.
    let selfs = r.rec.self_times_ns();
    let spans = r.rec.spans();
    let pick = |name: &str, timed_only: bool, scale: f64| -> Vec<f64> {
        spans
            .iter()
            .zip(&selfs)
            .filter(|(sp, _)| sp.name == name && (!timed_only || sp.request & TIMED != 0))
            .map(|(_, &ns)| ns as f64 / scale)
            .collect()
    };
    let batch_layers: [(&'static str, &'static str, &'static str, f64); 10] = [
        ("http.read", "http.read_us", "us", 1e3),
        ("http.write", "http.write_us", "us", 1e3),
        ("json.query_parse", "json.query_parse_us", "us", 1e3),
        ("json.answer_encode", "json.answer_encode_us", "us", 1e3),
        ("registry.get", "registry.get_ns", "ns", 1.0),
        ("cache.probe", "cache.probe_us", "us", 1e3),
        ("cache.insert", "cache.insert_us", "us", 1e3),
        ("kernel.batch", "kernel.batch_us", "us", 1e3),
        ("kernel.seq_batch", "kernel.seq_batch_us", "us", 1e3),
        ("server.query_batch", "server.glue_us", "us", 1e3),
    ];
    let mut batch_server_us = 0.0;
    for (span, metric, unit, scale) in batch_layers {
        put(&mut layers, metric, &pick(span, true, scale), unit);
        if span != "kernel.seq_batch" {
            batch_server_us += layers[metric].0 * scale / 1e3;
        }
    }
    let write_layers: [(&'static str, &'static str); 6] = [
        ("json.artifact_parse", "json.artifact_parse_ms"),
        ("registry.load_json", "registry.load_json_ms"),
        ("registry.load_bin", "registry.load_bin_ms"),
        ("registry.load_base", "registry.load_base_ms"),
        ("registry.publish", "registry.publish_ms"),
        ("cache.purge", "cache.purge_ms"),
    ];
    for (span, metric) in write_layers {
        put(&mut layers, metric, &pick(span, false, 1e6), "ms");
    }
    put(
        &mut layers,
        "json.ingest_parse_us",
        &pick("json.ingest_parse", false, 1e3),
        "us",
    );
    let manager: Vec<f64> = pick("stream.manager_ingest", false, 1e6)
        .into_iter()
        .zip(&r.ingest_released)
        .filter(|(_, &released)| released)
        .map(|(ms, _)| ms)
        .collect();
    put(&mut layers, "stream.manager_ingest_ms", &manager, "ms");
    for (k, name) in ["build.ms", "ols.ms", "encode.json_ms", "encode.bin_ms"]
        .into_iter()
        .enumerate()
    {
        let v: Vec<f64> = r.owner_ms.iter().map(|m| m[k]).collect();
        put(&mut layers, name, &v, "ms");
    }
    r.counters.layers(&mut layers);
    Ok(Replay {
        layers,
        counters: r.counters,
        spans: r.rec,
        batch_server_us,
    })
}
