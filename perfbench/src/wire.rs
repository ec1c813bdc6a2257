//! The untraced (scored) run: an in-process `dpsd-serve` on loopback,
//! set up several times, then driven closed-loop by at most two client
//! connections. Responses are reduced to compact records while timed and
//! checked bit-for-bit against in-process oracles afterwards.

use crate::plan::{to_json, Batch, Plan, Workload, BASE, FEED, OWNER};
use crate::trace::{now, Recorder};
use dpsd_core::budget::EpsilonLedger;
use dpsd_core::exec::{par_map_shards, Parallelism};
use dpsd_core::flat::FlatSynopsis;
use dpsd_core::stream::batch_config_for;
use dpsd_core::synopsis::SpatialSynopsis;
use dpsd_core::tree::ReleasedSynopsis;
use dpsd_serve::client::{Client, Response};
use dpsd_serve::server::{ServeConfig, Server, ServerHandle};
use serde::Value;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// Attempted and failed operations, per operation type.
#[derive(Default)]
pub struct Tally(pub BTreeMap<&'static str, (u64, u64)>);

impl Tally {
    pub fn record(&mut self, op: &'static str, ok: bool) -> bool {
        let e = self.0.entry(op).or_default();
        e.0 += 1;
        e.1 += u64::from(!ok);
        ok
    }

    pub fn merge(&mut self, other: Tally) {
        for (op, (a, f)) in other.0 {
            let e = self.0.entry(op).or_default();
            e.0 += a;
            e.1 += f;
        }
    }

    pub fn totals(&self) -> (u64, u64) {
        self.0
            .values()
            .fold((0, 0), |acc, &(a, f)| (acc.0 + a, acc.1 + f))
    }
}

/// FNV-1a over bytes: a compact stand-in for a response's answers.
fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The wire text of an answers array, exactly as the server prints it.
pub fn answers_text(answers: &[f64]) -> String {
    to_json(&Value::Array(
        answers.iter().copied().map(Value::Number).collect(),
    ))
}

/// `(version, digest of the answers array)` of a batch response, found
/// by plain string search so the timed loop does no JSON parsing.
fn batch_digest(body: &str) -> Option<(u64, u64)> {
    let version = body.split("\"version\":").nth(1)?;
    let end = version.find(|c: char| !c.is_ascii_digit() && c != '.')?;
    let version = version[..end].parse::<f64>().ok()? as u64;
    let start = body.find("\"answers\":")? + "\"answers\":".len();
    let len = body[start..].find(']')? + 1;
    Some((version, fnv(&body.as_bytes()[start..start + len])))
}

/// One timed or warm-up batch response.
#[derive(Clone, Copy)]
pub struct BatchRecord {
    pub conn: usize,
    pub index: usize,
    pub latency_us: f64,
    /// Completion time, in seconds since the window started.
    pub done_s: f64,
    /// `None` when the request failed or the body was not a batch answer.
    pub answer: Option<(u64, u64)>,
}

fn send_batch(
    client: &mut Client,
    origin: Instant,
    conn: usize,
    index: usize,
    b: &Batch,
) -> BatchRecord {
    let started = now();
    let response = client.post(&b.path, &b.body);
    let latency_us = started.elapsed().as_secs_f64() * 1e6;
    let done_s = origin.elapsed().as_secs_f64();
    let answer = match response {
        Ok(r) if r.status == 200 => batch_digest(&r.body),
        _ => None,
    };
    BatchRecord {
        conn,
        index,
        latency_us,
        done_s,
        answer,
    }
}

/// End-to-end samples of one run.
#[derive(Default)]
pub struct Samples {
    pub setup_s: Vec<f64>,
    pub batch_us: Vec<f64>,
    pub timed_s: f64,
    /// Rects answered in each whole second of every timed window.
    pub rects_per_second: Vec<f64>,
    pub publish_json_ms: Vec<f64>,
    pub publish_bin_ms: Vec<f64>,
    pub owner_build_ms: Vec<f64>,
    pub release_ms: Vec<f64>,
    pub ingest_points: u64,
    pub ingest_s: f64,
    pub rel_errors: Vec<f64>,
}

/// Write-side samples, kept apart so write-mix can report only those
/// taken under read load.
#[derive(Default)]
struct WriteSamples {
    publish_json_ms: Vec<f64>,
    publish_bin_ms: Vec<f64>,
    owner_build_ms: Vec<f64>,
    release_ms: Vec<f64>,
    ingest_points: u64,
    ingest_s: f64,
}

impl WriteSamples {
    fn drain_into(&mut self, s: &mut Samples) {
        let w = std::mem::take(self);
        s.publish_json_ms.extend(w.publish_json_ms);
        s.publish_bin_ms.extend(w.publish_bin_ms);
        s.owner_build_ms.extend(w.owner_build_ms);
        s.release_ms.extend(w.release_ms);
        s.ingest_points += w.ingest_points;
        s.ingest_s += w.ingest_s;
    }
}

fn spent_of(response: &Response) -> Option<f64> {
    response.json().ok()?.get("budget")?.get("spent")?.as_f64()
}

/// The server plus the writer's view of every tenant: the oracle for
/// each version it minted and a local ledger fold per tenant.
struct Deployment<'p> {
    plan: &'p Plan,
    handle: Option<ServerHandle>,
    addr: SocketAddr,
    client: Client,
    base: Option<FlatSynopsis>,
    base_ledger: EpsilonLedger,
    /// Oracle and `(epsilon, artifact)` per pre-built owner release.
    owner: Vec<FlatSynopsis>,
    owner_artifacts: Vec<(f64, Vec<u8>)>,
    /// Owner versions published so far.
    owner_versions: u64,
    owner_ledger: EpsilonLedger,
    feed_ledger: EpsilonLedger,
    /// Feed releases seen, in epoch order (`epoch == index`).
    feed_epochs: u64,
    next_ingest: usize,
    /// The next write-mix writer cycle (0 and 1 run in set-up).
    next_cycle: usize,
    writes: WriteSamples,
    tally: Tally,
}

pub fn server_config(plan: &Plan) -> ServeConfig {
    ServeConfig {
        cache_capacity: plan.scale.cache_capacity,
        ..ServeConfig::default()
    }
}

impl<'p> Deployment<'p> {
    fn start(plan: &'p Plan) -> Result<Self, String> {
        let server = Server::bind("127.0.0.1:0", server_config(plan))
            .map_err(|e| format!("cannot bind: {e}"))?;
        let handle = server.spawn().map_err(|e| format!("cannot spawn: {e}"))?;
        let addr = handle.addr();
        Ok(Deployment {
            plan,
            handle: Some(handle),
            addr,
            client: Client::connect(addr).map_err(|e| format!("cannot connect: {e}"))?,
            base: None,
            base_ledger: EpsilonLedger::unbounded(),
            owner: Vec::new(),
            owner_artifacts: Vec::new(),
            owner_versions: 0,
            owner_ledger: EpsilonLedger::unbounded(),
            feed_ledger: EpsilonLedger::unbounded(),
            feed_epochs: 0,
            next_ingest: 0,
            next_cycle: 2,
            writes: WriteSamples::default(),
            tally: Tally::default(),
        })
    }

    /// Publishes `artifact` and checks the minted version and the
    /// tenant's reported spend against the local ledger fold.
    fn publish(
        &mut self,
        tenant: &'static str,
        artifact: Vec<u8>,
        epsilon: f64,
        version: u64,
    ) -> Result<f64, String> {
        let started = now();
        let response = self
            .client
            .post_bytes(&format!("/synopses/{tenant}"), &artifact)
            .map_err(|e| format!("publish to {tenant}: {e}"))?;
        let ms = started.elapsed().as_secs_f64() * 1e3;
        let ledger = if tenant == BASE {
            &mut self.base_ledger
        } else {
            &mut self.owner_ledger
        };
        ledger.debit(epsilon).map_err(|e| e.to_string())?;
        let got_version = response
            .json()
            .ok()
            .and_then(|v| v.get("version")?.as_u64());
        let ok = response.status == 200
            && got_version == Some(version)
            && spent_of(&response).map(f64::to_bits) == Some(ledger.spent().to_bits());
        self.tally.record("publish", ok);
        if response.status != 200 {
            return Err(format!(
                "publish to {tenant}: {} {}",
                response.status, response.body
            ));
        }
        Ok(ms)
    }

    fn publish_base(&mut self) -> Result<(), String> {
        let release = self
            .plan
            .base_config()
            .build(&self.plan.base_points)
            .map_err(|e| e.to_string())?
            .release();
        let artifact = release.to_flat_bytes();
        self.publish(BASE, artifact, release.as_tree().epsilon(), 1)?;
        self.base = Some(FlatSynopsis::from_released(&release));
        Ok(())
    }

    /// The data owner's job, done in set-up so that client-side CPU
    /// work stays off the timed path: build, release and encode each
    /// fresh-seed owner release (JSON for even indices, `dpsd-bin/v1`
    /// for odd ones).
    fn build_owner_releases(&mut self) -> Result<(), String> {
        for i in 0..self.plan.scale.owner_releases {
            let started = now();
            let release: ReleasedSynopsis = self
                .plan
                .owner_config(i)
                .build(&self.plan.owner_points)
                .map_err(|e| e.to_string())?
                .release();
            let artifact = if Plan::cycle_is_json(i) {
                release.to_json_string().into_bytes()
            } else {
                release.to_flat_bytes()
            };
            self.writes
                .owner_build_ms
                .push(started.elapsed().as_secs_f64() * 1e3);
            self.owner.push(FlatSynopsis::from_released(&release));
            self.owner_artifacts
                .push((release.as_tree().epsilon(), artifact));
        }
        Ok(())
    }

    /// Publishes the owner release of writer cycle `cycle`.
    fn owner_cycle(&mut self, cycle: usize) -> Result<(), String> {
        let i = cycle % self.owner.len();
        let (epsilon, artifact) = self.owner_artifacts[i].clone();
        self.owner_versions += 1;
        let ms = self.publish(OWNER, artifact, epsilon, self.owner_versions)?;
        if Plan::cycle_is_json(cycle) {
            self.writes.publish_json_ms.push(ms);
        } else {
            self.writes.publish_bin_ms.push(ms);
        }
        Ok(())
    }

    /// Oracle for owner `version`: version `v` is writer cycle `v - 1`.
    fn owner_oracle(&self, version: u64) -> Option<&FlatSynopsis> {
        let cycle = (version as usize).checked_sub(1)?;
        (version <= self.owner_versions).then(|| &self.owner[cycle % self.owner.len()])
    }

    fn create_feed(&mut self) -> Result<(), String> {
        let response = self
            .client
            .post(
                &format!("/synopses/{FEED}/stream"),
                &self.plan.feed_spec_body,
            )
            .map_err(|e| format!("stream create: {e}"))?;
        if !self.tally.record("stream_create", response.status == 200) {
            return Err(format!(
                "stream create: {} {}",
                response.status, response.body
            ));
        }
        Ok(())
    }

    /// Sends the next ingest request.
    fn ingest_next(&mut self) -> Result<(), String> {
        let bodies = &self.plan.ingest_bodies;
        let body = &bodies[self.next_ingest % bodies.len()];
        let started = now();
        let response = self
            .client
            .post(&format!("/synopses/{FEED}/ingest"), body)
            .map_err(|e| format!("ingest: {e}"))?;
        let secs = started.elapsed().as_secs_f64();
        self.next_ingest += 1;
        let report = response.json().ok();
        let releases = report
            .as_ref()
            .and_then(|r| r.get("releases")?.as_array().map(<[Value]>::to_vec))
            .unwrap_or_default();
        let mut ok = response.status == 200 && report.is_some();
        for r in &releases {
            let epoch = r.get("epoch").and_then(Value::as_u64);
            let version = r.get("version").and_then(Value::as_u64);
            ok &= epoch == Some(self.feed_epochs) && version == Some(self.feed_epochs + 1);
            let debit = self.plan.feed_config.release_debit(self.feed_epochs);
            self.feed_ledger.debit(debit).map_err(|e| e.to_string())?;
            self.feed_epochs += 1;
        }
        self.tally.record("ingest", ok);
        if response.status != 200 {
            return Err(format!("ingest: {} {}", response.status, response.body));
        }
        self.writes.ingest_points += self.plan.scale.ingest_points as u64;
        self.writes.ingest_s += secs;
        if !releases.is_empty() {
            self.writes.release_ms.push(secs * 1e3);
        }
        Ok(())
    }

    /// One full set-up: every tenant published, the feed past its first
    /// epoch, the cache warmed (or filled) for the workload.
    fn setup(plan: &'p Plan) -> Result<(Self, Vec<BatchRecord>), String> {
        let mut d = Deployment::start(plan)?;
        d.publish_base()?;
        d.build_owner_releases()?;
        d.owner_cycle(0)?;
        d.owner_cycle(1)?;
        d.create_feed()?;
        for _ in 0..plan.setup_ingests {
            d.ingest_next()?;
        }
        let mut warm = Vec::with_capacity(plan.warm.len());
        for (i, b) in plan.warm.iter().enumerate() {
            let origin = now();
            warm.push(send_batch(&mut d.client, origin, usize::MAX, i, b));
        }
        Ok((d, warm))
    }

    /// Compares every tenant's `budget.spent` with the local fold.
    fn check_budgets(&mut self) -> Result<(), String> {
        for (tenant, want) in [
            (BASE, self.base_ledger.spent()),
            (OWNER, self.owner_ledger.spent()),
            (FEED, self.feed_ledger.spent()),
        ] {
            let response = self
                .client
                .get(&format!("/synopses/{tenant}"))
                .map_err(|e| format!("info {tenant}: {e}"))?;
            let ok = response.status == 200
                && spent_of(&response).map(f64::to_bits) == Some(want.to_bits());
            self.tally.record("budget_check", ok);
        }
        Ok(())
    }
}

impl Drop for Deployment<'_> {
    fn drop(&mut self) {
        // Stops the accept loop; the writer connection closes right
        // after, as a field, so its server thread sees EOF and ends.
        if let Some(h) = self.handle.take() {
            h.shutdown();
        }
    }
}

/// One timed window of closed-loop traffic.
pub struct Window {
    pub traced: bool,
    pub records: Vec<BatchRecord>,
    pub spans: Recorder,
    pub seconds: f64,
}

/// What one wire run produced.
pub struct WireRun {
    pub samples: Samples,
    pub tally: Tally,
    pub windows: Vec<Window>,
    /// Peak resident set after the first timed window, before any
    /// verification ran: input generation, set-up and serving.
    pub peak_rss_mb: Option<f64>,
}

/// Peak resident set of this process (which hosts the server), in MB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Runs `plan.scale.setup_reps` segments, each a full set-up on a
/// fresh server followed by an equal share of `seconds` of timed
/// closed-loop traffic, then verification. Interleaving set-ups and
/// timed windows spreads every metric's samples over the whole run.
/// With `traced`, each segment's share is split into an untraced and
/// a traced window; a traced window wraps every client call in a span.
pub fn run(plan: &Plan, seconds: f64, traced: bool) -> Result<WireRun, String> {
    let segments = plan.scale.setup_reps;
    let share = seconds / segments as f64;
    let shares: &[(f64, bool)] = if traced {
        &[(share / 2.0, false), (share / 2.0, true)]
    } else {
        &[(share, false)]
    };
    let mut out = WireRun {
        samples: Samples::default(),
        tally: Tally::default(),
        windows: Vec::new(),
        peak_rss_mb: None,
    };
    let mut scored = HashSet::new();
    for _ in 0..segments {
        let started = now();
        let (mut d, warm) = Deployment::setup(plan)?;
        out.samples.setup_s.push(started.elapsed().as_secs_f64());
        // Owner builds are set-up work in every workload; write-mix
        // reports its other write samples from the timed windows only.
        if plan.workload == Workload::WriteMix {
            let builds = std::mem::take(&mut d.writes.owner_build_ms);
            out.samples.owner_build_ms.extend(builds);
            d.writes = WriteSamples::default();
        } else {
            d.writes.drain_into(&mut out.samples);
        }
        let mut windows = Vec::new();
        for &(secs, traced) in shares {
            windows.push(timed(&mut d, secs, traced)?);
        }
        if out.peak_rss_mb.is_none() {
            out.peak_rss_mb = peak_rss_mb();
        }
        if plan.workload == Workload::WriteMix {
            d.writes.drain_into(&mut out.samples);
        }
        d.check_budgets()?;
        for w in &windows {
            out.samples.timed_s += w.seconds;
            out.samples
                .batch_us
                .extend(w.records.iter().map(|r| r.latency_us));
            let mut bins = vec![0.0; w.seconds as usize];
            for r in w.records.iter().filter(|r| r.answer.is_some()) {
                if let Some(bin) = bins.get_mut(r.done_s as usize) {
                    *bin += plan.conns[r.conn][r.index].rects.len() as f64;
                }
            }
            out.samples.rects_per_second.extend(bins);
        }
        verify(
            plan,
            &mut d,
            &warm,
            &windows,
            &mut scored,
            &mut out.samples.rel_errors,
        )?;
        out.tally.merge(std::mem::take(&mut d.tally));
        if traced {
            out.windows.extend(windows);
        }
    }
    Ok(out)
}

fn timed(d: &mut Deployment, seconds: f64, traced: bool) -> Result<Window, String> {
    let plan = d.plan;
    let mut clients = plan
        .conns
        .iter()
        .map(|_| Client::connect(d.addr).map_err(|e| format!("cannot connect: {e}")))
        .collect::<Result<Vec<_>, _>>()?;
    let started = now();
    let deadline = started + Duration::from_secs_f64(seconds);
    let mut spans = Recorder::new(traced);
    let mut records = Vec::new();
    let mut reader_s = 0.0f64;
    let mut result = Ok(());
    std::thread::scope(|scope| {
        let readers: Vec<_> = clients
            .iter_mut()
            .zip(&plan.conns)
            .enumerate()
            .map(|(conn, (client, batches))| {
                scope.spawn(move || {
                    let mut rec = Recorder::new(traced);
                    let mut out = Vec::with_capacity(1 << 16);
                    let mut i = 0usize;
                    while now() < deadline {
                        let index = i % batches.len();
                        let request = ((conn as u64) << 40) | i as u64;
                        out.push(rec.span("client.query_batch", request, None, || {
                            send_batch(client, started, conn, index, &batches[index])
                        }));
                        i += 1;
                    }
                    (out, rec, started.elapsed().as_secs_f64())
                })
            })
            .collect();
        if plan.workload == Workload::WriteMix {
            result = write_loop(d, deadline, &mut spans);
        }
        for h in readers {
            match h.join() {
                Ok((out, rec, secs)) => {
                    records.extend(out);
                    spans.absorb(rec);
                    reader_s = reader_s.max(secs);
                }
                Err(_) => result = Err("a client thread panicked".to_string()),
            }
        }
    });
    result?;
    Ok(Window {
        traced,
        records,
        spans,
        seconds: reader_s,
    })
}

fn write_loop(d: &mut Deployment, deadline: Instant, spans: &mut Recorder) -> Result<(), String> {
    while now() < deadline {
        let cycle = d.next_cycle;
        d.next_cycle += 1;
        let request = (9u64 << 40) | cycle as u64;
        spans.span("client.owner_cycle", request, None, || d.owner_cycle(cycle))?;
        for _ in 0..d.plan.scale.ingests_per_cycle {
            spans.span("client.ingest", request, None, || d.ingest_next())?;
        }
    }
    Ok(())
}

/// The feed release of `epoch` rebuilt from scratch: a batch build
/// over exactly the in-window suffix, as `dpsd-bin` bytes.
pub fn feed_release_bytes(plan: &Plan, epoch: u64) -> Result<Vec<u8>, String> {
    let e = plan.scale.epoch_points;
    let end = ((epoch + 1) * e) as usize;
    let start = ((epoch + 1).saturating_sub(plan.scale.window) * e) as usize;
    let release = batch_config_for(&plan.feed_config, epoch)
        .build(&plan.feed_range(start, end))
        .map_err(|e| format!("feed rebuild: {e}"))?
        .release();
    Ok(release.to_flat_bytes())
}

/// Oracle for the feed release of `epoch`, loaded through the same
/// codec the server publishes with.
fn feed_oracle(plan: &Plan, epoch: u64) -> Result<FlatSynopsis, String> {
    FlatSynopsis::from_bytes(&feed_release_bytes(plan, epoch)?).map_err(|e| e.to_string())
}

/// Checks every recorded answer bit-for-bit against the oracle of
/// the version that produced it, and collects the relative errors
/// of the distinct rects answered. Runs after the timed windows, on
/// every core.
fn verify(
    plan: &Plan,
    d: &mut Deployment,
    warm: &[BatchRecord],
    windows: &[Window],
    scored_before: &mut HashSet<(u64, [u64; 4])>,
    rel_errors: &mut Vec<f64>,
) -> Result<(), String> {
    let par = Parallelism::Auto;
    let feed: HashMap<u64, FlatSynopsis> = (0..d.feed_epochs)
        .map(|epoch| Ok((epoch + 1, feed_oracle(plan, epoch)?)))
        .collect::<Result<_, String>>()?;
    let oracle = |tenant: &str, version: u64| match tenant {
        BASE if version == 1 => d.base.as_ref(),
        OWNER => d.owner_oracle(version),
        FEED => feed.get(&version),
        _ => None,
    };
    let warm = warm.iter().map(|r| (r, &plan.warm[r.index]));
    let timed = windows
        .iter()
        .flat_map(|w| &w.records)
        .map(|r| (r, &plan.conns[r.conn][r.index]));
    let answered: Vec<_> = warm.chain(timed).collect();

    // Expected digests, once per distinct (batch, version).
    let mut keys: Vec<(usize, usize, u64)> = answered
        .iter()
        .filter_map(|(r, _)| Some((r.conn, r.index, r.answer?.0)))
        .collect();
    keys.sort_unstable();
    keys.dedup();
    let batch_of = |conn: usize, index: usize| {
        if conn == usize::MAX {
            &plan.warm[index]
        } else {
            &plan.conns[conn][index]
        }
    };
    let digests = par_map_shards(par, &keys, 8, |shard| {
        shard
            .iter()
            .map(|&(conn, index, version)| {
                let b = batch_of(conn, index);
                oracle(b.tenant, version)
                    .map(|o| fnv(answers_text(&o.query_batch(&b.rects)).as_bytes()))
            })
            .collect()
    });
    let expected: HashMap<_, _> = keys.iter().copied().zip(digests).collect();
    let mut scored = Vec::new();
    let mut checked = Vec::with_capacity(answered.len());
    let rel_tenant = if plan.workload == Workload::WriteMix {
        OWNER
    } else {
        BASE
    };
    for (r, b) in &answered {
        let ok = r.answer.is_some_and(|(version, digest)| {
            expected.get(&(r.conn, r.index, version)) == Some(&Some(digest))
        });
        checked.push(ok);
        if let (true, true, Some((version, _))) =
            (ok, r.conn != usize::MAX && b.tenant == rel_tenant, r.answer)
        {
            for rect in &b.rects {
                let bits = [rect.min[0], rect.min[1], rect.max[0], rect.max[1]].map(f64::to_bits);
                if scored_before.insert((version, bits)) {
                    scored.push((version, *rect));
                }
            }
        }
    }

    // Relative error over the distinct (version, rect) pairs the
    // timed windows answered, against exact counts. Segments repeat
    // the same releases, so pairs scored before are skipped.
    let exact = if rel_tenant == BASE {
        exact_index(&plan.base_points)?
    } else {
        exact_index(&plan.owner_points)?
    };
    let errors = par_map_shards(par, &scored, 256, |shard| {
        shard
            .iter()
            .filter_map(|(version, rect)| {
                let truth = exact.count(rect) as f64;
                let est = oracle(rel_tenant, *version)?.query(rect);
                (truth > 0.0).then(|| (est - truth).abs() / truth)
            })
            .collect()
    });
    rel_errors.extend(errors);
    for ok in checked {
        d.tally.record("query_batch", ok);
    }
    Ok(())
}

pub fn exact_index(
    points: &[dpsd_core::geometry::Point],
) -> Result<dpsd_baselines::ExactIndex, String> {
    dpsd_baselines::ExactIndex::build(points, dpsd_data::synthetic::TIGER_DOMAIN, 256)
        .map_err(|e| e.to_string())
}
