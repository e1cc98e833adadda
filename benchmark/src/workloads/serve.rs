//! `serve_mixed`: the production path — codec → shard queue → tenant →
//! transaction → framed reply — over the in-process loopback transport.
//!
//! Closed loop, one client thread, one shard: callers of the blocking
//! client API each wait for a reply, so a slow server receives less load
//! (an open loop needs a pipelined transport, which the product does not
//! have yet). Six always-resident tenants, two per position-independent
//! representation; 60 % Get, 20 % Put, 10 % Delete, 10 % PrefixQuery over
//! one 26-key prefix block (replies of at most 17 lines).
//!
//! The `normal` cell is the same request stream applied directly, in
//! process, to normal-pointer structures kept the way a tenant keeps
//! them: what serving adds to a request is its latency minus that.
//!
//! Requests change state, so no two stretches of the stream are the same
//! work; but the stream is built of windows of 240 requests that hold the
//! same (tenant, kind) slots in the same order and differ in their keys
//! only. A cost is computed per window and the quietest window's is
//! reported: 1.3 ms that the host left alone turn up in a run even when
//! 22 ms (a round) do not.

use super::{best, ns32, repr_metric, round_latency, timed_setups, Ctx, Outcome, SETUPS};
use crate::gen::{self, Req, ReqKind, ReqStream, Rng, PREFIX_BLOCK, PREFIX_CAP};
use crate::stats;
use crate::sut::{self, DirectTenant, Reply, Repr, Res, Served};
use crate::trace::{self, Layer, Tracer, Waterfall};
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::time::{Duration, Instant};

const TENANTS: [(u32, Repr); 6] = [
    (0, Repr::OffHolder),
    (1, Repr::Riv),
    (2, Repr::Fat),
    (3, Repr::OffHolder),
    (4, Repr::Riv),
    (5, Repr::Fat),
];
/// Windows of a round: 3 840 requests, served, then applied directly.
const WINDOWS_PER_ROUND: usize = 16;
/// Rounds the seed commit gets through in a second.
const ROUNDS_PER_SECOND: f64 = 32.0;
/// Requests of a traced round that get spans (four spans each).
const TRACED_REQS: usize = 2000;
/// A tenant's set node and index leaf are never reclaimed, so the region
/// is sized for the run.
const REGION_BYTES: usize = 64 << 20;

struct Built {
    served: Served,
    direct: Vec<DirectTenant>,
    dir: PathBuf,
    startup: Duration,
}

fn lines_of(matches: usize) -> u16 {
    (matches.min(PREFIX_CAP) + (matches > PREFIX_CAP) as usize) as u16
}

fn reply_ok(reply: &Reply, req: &Req) -> bool {
    reply.ok
        && reply.found == req.found
        && (req.kind != ReqKind::Prefix || reply.lines == req.lines)
}

fn build(ctx: &Ctx, nth: usize, keyspace: u64, region_bytes: usize) -> Res<Built> {
    let dir = ctx.scratch.join(format!("serve-{nth}"));
    let nbuckets = (keyspace / 8).max(8);
    let t = Instant::now();
    let mut served = Served::start(&dir, &TENANTS, region_bytes, nbuckets)?;
    let startup = t.elapsed();
    let mut direct = Vec::new();
    for (id, _) in TENANTS {
        let mut d = DirectTenant::create(region_bytes, nbuckets)?;
        for key in gen::preloaded_keys(keyspace) {
            let put = Req {
                tenant: id as u16,
                kind: ReqKind::Put,
                key,
                found: true,
                lines: 0,
            };
            if !reply_ok(&served.request(&put), &put) {
                return Err(format!("preload put of key {key} into tenant {id} failed"));
            }
            d.apply(&put)?;
        }
        direct.push(d);
    }
    Ok(Built {
        served,
        direct,
        dir,
        startup,
    })
}

/// The detail a prefix reply must carry, from the oracle's key set.
fn expected_detail(set: &BTreeSet<u64>, key: u64) -> String {
    let lo = key - key % PREFIX_BLOCK;
    let words: Vec<String> = set
        .range(lo..lo + PREFIX_BLOCK)
        .map(|&k| sut::index_word(k))
        .collect();
    let shown = words[..words.len().min(PREFIX_CAP)].join("\n");
    if words.len() > PREFIX_CAP {
        format!("{shown}\n… {} more", words.len() - PREFIX_CAP)
    } else {
        shown
    }
}

pub fn run(ctx: &Ctx) -> Res<Outcome> {
    let keyspace = ctx.scaled(8192, 4 * PREFIX_BLOCK as usize, 2) as u64;
    let windows = ctx.scaled(WINDOWS_PER_ROUND, 2, 1);
    let rounds = ctx.rounds(ROUNDS_PER_SECOND);
    let mut rng = Rng::fork(ctx.seed, "serve_mixed");
    let stream: ReqStream = gen::req_stream(
        TENANTS.len() as u32,
        keyspace,
        windows * (rounds + 1),
        &mut rng,
    );
    let window = stream.window;
    let per_round = windows * window;
    let region_bytes = (REGION_BYTES / ctx.scale).max(8 << 20);
    let preloaded = gen::preloaded_keys(keyspace).count() * TENANTS.len();

    let mut out = Outcome::default();
    // A discarded set-up is shut down, which is the one moment a tenant's
    // image can be read: bytes per key come from there.
    let mut bytes_per_key = 0.0;
    let mut nth = 0;
    let (mut b, setup_s) = timed_setups(
        SETUPS,
        || {
            nth += 1;
            build(ctx, nth, keyspace, region_bytes)
        },
        |old: Built| {
            old.served.shutdown();
            let mut live = 0;
            for (id, _) in TENANTS {
                live += sut::image_live_bytes(&sut::tenant_image(&old.dir, id))?;
            }
            bytes_per_key = live as f64 / preloaded as f64;
            old.direct.into_iter().try_for_each(DirectTenant::close)?;
            std::fs::remove_dir_all(&old.dir).map_err(|e| e.to_string())
        },
    )?;

    // Per measured round, of its quietest window: mean request ns by
    // representation, requests per second and the median request; of the
    // whole round, the direct cell's ns per request.
    let mut by_repr: [Vec<f64>; 3] = Default::default();
    let mut per_s = Vec::new();
    let mut direct_rounds = Vec::new();
    let mut traced_rounds = Vec::new();
    // Span index range of each traced round.
    let mut traced_spans = Vec::new();
    let mut untraced_rounds = Vec::new();
    let (mut p50s, mut p99s) = (Vec::new(), Vec::new());
    let mut samples: Vec<u32> = Vec::new();
    let mut by_kind: [Vec<u32>; 4] = Default::default();
    let (mut wrong_served, mut wrong_direct) = (0u64, 0u64);
    let mut tracer = Tracer::new(false);

    for i in 0..=rounds {
        let reqs = &stream.reqs[i * per_round..(i + 1) * per_round];
        let traced = ctx.traced_round(i);
        tracer.set_on(traced);
        // The product's counters cover the served requests only: the
        // direct cell below runs the same ops again on its own tenants.
        let before = sut::Counters::read();
        let start = Instant::now();
        let mut last = start;
        if traced {
            let tr = &mut tracer;
            let spanned = TRACED_REQS.min(per_round);
            let first_span = tr.spans().len();
            for (n, req) in reqs[..spanned].iter().enumerate() {
                tr.enter("request", n as u64);
                tr.enter("codec.encode_request", n as u64);
                let frame = b.served.encode(req);
                tr.exit();
                tr.enter("transport.call", n as u64);
                let reply = b.served.call(&frame);
                tr.exit();
                tr.enter("codec.decode_response", n as u64);
                let reply = Served::decode(&reply);
                tr.exit();
                tr.exit();
                wrong_served += !reply_ok(&reply, req) as u64;
            }
            traced_rounds.push(start.elapsed().as_nanos() as f64 / spanned as f64);
            traced_spans.push(first_span..tr.spans().len());
            for req in &reqs[spanned..] {
                wrong_served += !reply_ok(&b.served.request(req), req) as u64;
            }
        } else {
            for req in reqs {
                let reply = b.served.request(req);
                wrong_served += !reply_ok(&reply, req) as u64;
                let now = Instant::now();
                let ns = ns32(now - last);
                last = now;
                if i > 0 {
                    samples.push(ns);
                    if ctx.trace {
                        by_kind[req.kind as usize].push(ns);
                    }
                }
            }
            if i > 0 {
                untraced_rounds.push(start.elapsed().as_nanos() as f64 / per_round as f64);
                let mut quietest = [f64::INFINITY; 5];
                for (w, ns) in reqs.chunks(window).zip(samples.chunks(window)) {
                    let mut sum = [0u64; 3];
                    for (req, &ns) in w.iter().zip(ns) {
                        sum[req.tenant as usize % 3] += ns as u64;
                    }
                    // Every representation has a third of a window's slots.
                    let of_repr = sum.map(|s| s as f64 / (window / 3) as f64);
                    let total: u64 = sum.iter().sum();
                    let p50 = stats::percentile_u32(&mut ns.to_vec(), 0.5) / 1e3;
                    let costs = [of_repr[0], of_repr[1], of_repr[2], total as f64, p50];
                    for (q, c) in quietest.iter_mut().zip(costs) {
                        *q = q.min(c);
                    }
                }
                for r in 0..3 {
                    by_repr[r].push(quietest[r]);
                }
                per_s.push(window as f64 / quietest[3] * 1e9);
                p50s.push(quietest[4]);
                p99s.push(round_latency(&mut samples).1);
            }
        }
        out.events += sut::events_since(&before);
        // The same slice, directly. The served loop evicted the direct
        // tenants from L2, and a replay that misses to L3 takes its speed
        // from the host's other tenants, so each window's keys are looked
        // up, untimed, first. A direct window is 0.1 ms and its time
        // follows how many of its Puts and Deletes apply, so this cell's
        // unit is the round.
        let mut took = Duration::ZERO;
        for w in reqs.chunks(window) {
            for req in w {
                b.direct[req.tenant as usize].touch(req.key);
            }
            let start = Instant::now();
            for req in w {
                let (found, matches) = b.direct[req.tenant as usize].apply(req)?;
                wrong_direct += (found != req.found
                    || (req.kind == ReqKind::Prefix && lines_of(matches) != req.lines))
                    as u64;
            }
            took += start.elapsed();
        }
        if i > 0 && !traced {
            direct_rounds.push(took.as_nanos() as f64 / per_round as f64);
        }
    }
    let done = per_round * (rounds + 1);
    out.ops = done as u64;
    out.tally.bulk(done as u64, wrong_served, || {
        "a served reply disagreed with the oracle".to_string()
    });
    out.tally.bulk(done as u64, wrong_direct, || {
        "a direct op disagreed with the oracle".to_string()
    });

    // Whole prefix replies, not just their line counts.
    let state = stream.state_after(done);
    for (id, _) in TENANTS {
        for k in 0..ctx.scaled(32, 4, 1) as u64 {
            let key = k * 97 % keyspace;
            let probe = Req {
                tenant: id as u16,
                kind: ReqKind::Prefix,
                key,
                found: false,
                lines: 0,
            };
            let reply = b.served.request(&probe);
            let want = expected_detail(&state[id as usize], key);
            out.tally.check(reply.ok && reply.detail == want, || {
                format!(
                    "tenant {id}: prefix reply {:?}, oracle {want:?}",
                    reply.detail
                )
            });
        }
    }

    let mut direct_get_ns = 0.0;
    if ctx.trace {
        let gets: Vec<&Req> = stream.reqs[..done]
            .iter()
            .filter(|q| q.kind == ReqKind::Get)
            .take(per_round)
            .collect();
        let t = Instant::now();
        for req in &gets {
            std::hint::black_box(b.direct[req.tenant as usize].apply(req)?);
        }
        direct_get_ns = t.elapsed().as_nanos() as f64 / gets.len() as f64;
    }

    let t = Instant::now();
    let finals = b.served.shutdown();
    let shutdown = t.elapsed();
    for (id, keys, bases) in finals {
        let want: Vec<u64> = state[id as usize].iter().copied().collect();
        out.tally.check(keys == want, || {
            format!(
                "tenant {id}: {} keys at shutdown, the oracle holds {}",
                keys.len(),
                want.len()
            )
        });
        out.tally.check(bases.len() == 1, || {
            format!(
                "tenant {id} was remapped {} times; it must stay resident",
                bases.len() - 1
            )
        });
    }
    for (id, d) in b.direct.drain(..).enumerate() {
        let want: Vec<u64> = state[id].iter().copied().collect();
        out.tally.check(d.keys() == want, || {
            format!("direct tenant {id}: final keys differ from the oracle's")
        });
        let inv = d.check();
        out.tally.check(inv.is_ok(), || {
            format!("direct tenant {id}: {}", inv.unwrap_err())
        });
        d.close()?;
    }

    // Tenant `id` has representation `Repr::PI[id % 3]`.
    for (r, rounds) in Repr::PI.into_iter().zip(&by_repr) {
        out.e2e.insert(repr_metric(r), best(rounds));
    }
    out.e2e
        .insert(repr_metric(Repr::Normal), best(&direct_rounds));
    out.e2e
        .insert("req_per_s", per_s.iter().copied().fold(0.0, f64::max));
    out.e2e.insert("req_p50_us", best(&p50s));
    // The tail is the typical round's, not the luckiest round's.
    out.layer
        .insert("req_p99_us".to_string(), stats::median(&p99s));
    out.e2e.insert("bytes_per_key", bytes_per_key);
    out.e2e.insert("setup_s", setup_s);
    out.notes.push(format!(
        "{done} requests in {rounds} rounds of {windows} windows of {window}; p50 quietest window {:.3} us, median round's quietest {:.3} us; p99 median round {:.3} us, quietest {:.3} us",
        best(&p50s),
        stats::median(&p50s),
        stats::median(&p99s),
        best(&p99s)
    ));

    if ctx.trace {
        for (kind, name) in ["get", "put", "delete", "prefix"].iter().enumerate() {
            let p50 = stats::percentile_u32(&mut by_kind[kind], 0.5) / 1e3;
            out.layer.insert(format!("nvserver.{name}_p50_us"), p50);
        }
        let probe = |name: &str| ctx.probes[name];
        let server_codec =
            probe("nvserver.codec.decode_request_ns") + probe("nvserver.codec.encode_response_ns");
        let client_codec =
            probe("nvserver.codec.encode_request_ns") + probe("nvserver.codec.decode_response_ns");
        let get_p50 = out.layer["nvserver.get_p50_us"];
        out.layer.insert(
            "nvserver.handoff_us".to_string(),
            get_p50 - (server_codec + client_codec + direct_get_ns) / 1e3,
        );
        out.layer.insert(
            "nvserver.startup_ms".to_string(),
            b.startup.as_secs_f64() * 1e3,
        );
        out.layer.insert(
            "nvserver.shutdown_ms".to_string(),
            shutdown.as_secs_f64() * 1e3,
        );
        out.layer
            .insert("nvserver.shed".to_string(), out.events.srv_shed as f64);
        out.layer.insert(
            "nvserver.deadline_exceeded".to_string(),
            out.events.srv_deadline_exceeded as f64,
        );
        out.layer.insert(
            "nvserver.retries".to_string(),
            out.events.srv_retries as f64,
        );
        let untraced = best(&untraced_rounds);
        out.layer.insert(
            "trace.overhead_share".to_string(),
            best(&traced_rounds) / untraced - 1.0,
        );

        // Recorded spans give the client's side; the server's side of
        // `transport.call` is split by what can be measured from outside.
        // Like every timing, the waterfall is the quietest traced round's.
        let tr = &tracer;
        let quietest = (0..traced_rounds.len())
            .min_by(|&a, &b| traced_rounds[a].total_cmp(&traced_rounds[b]))
            .expect("five traced rounds ran");
        let names = trace::by_name(&trace::slice(tr.spans(), traced_spans[quietest].clone()));
        let n = names["request"].0 as f64;
        let own = |name: &str| names[name].2 as f64 / n;
        let call = own("transport.call");
        let op = best(&direct_rounds);
        let ev = &out.events;
        out.waterfalls.push(Waterfall {
            title: "serve_mixed".to_string(),
            untraced_ns_per_op: untraced,
            layers: vec![
                Layer {
                    layer: "benchmark loop (between spans)".to_string(),
                    self_ns_per_op: own("request"),
                    counts: String::new(),
                },
                Layer {
                    layer: "nvserver.codec, client side (spans)".to_string(),
                    self_ns_per_op: own("codec.encode_request") + own("codec.decode_response"),
                    counts: String::new(),
                },
                Layer {
                    layer: "nvserver.codec, server side (probe)".to_string(),
                    self_ns_per_op: server_codec,
                    counts: String::new(),
                },
                Layer {
                    layer: "pds + pstore + nvmsim (direct replay)".to_string(),
                    self_ns_per_op: op,
                    counts: format!(
                        "{:.3} lines, {:.3} fences /request",
                        ev.flushed_lines as f64 / out.ops as f64,
                        ev.fences as f64 / out.ops as f64
                    ),
                },
                Layer {
                    layer: "nvserver hand-off (queue, wake, slot; remainder)".to_string(),
                    self_ns_per_op: (call - server_codec - op).max(0.0),
                    counts: format!(
                        "{} shed, {} past deadline",
                        ev.srv_shed, ev.srv_deadline_exceeded
                    ),
                },
            ],
        });
    }
    out.rounds.push((
        "served.offholder".to_string(),
        std::mem::take(&mut by_repr[0]),
    ));
    out.rounds
        .push(("served.riv".to_string(), std::mem::take(&mut by_repr[1])));
    out.rounds
        .push(("served.fat".to_string(), std::mem::take(&mut by_repr[2])));
    out.rounds
        .push(("direct.normal".to_string(), direct_rounds));
    out.rounds.push(("served.req_per_s".to_string(), per_s));
    out.rounds.push(("served.p50_us".to_string(), p50s));
    out.rounds.push(("served.p99_us".to_string(), p99s));
    std::fs::remove_dir_all(&b.dir).map_err(|e| e.to_string())?;
    out.tracer = ctx.trace.then_some(tracer);
    Ok(out)
}
