//! `wire_lookup`: one client on a TCP connection to an in-process
//! `TdpServer` on 127.0.0.1 loads pages. A page is four rounds of four
//! BIND requests on statements the connection PREPAREd once, each
//! touching about one 4096-row chunk of `sales`.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Instant;

use tdp_core::{ParamValues, Session, TdpEngine};
use tdp_server::{ServerConfig, TdpServer};

use crate::data::{Rng, STORES};
use crate::harness::{
    closed_loop, ms_since, span_median, Counters, Fail, Latencies, Mode, Outcome, SetupClock, Tally,
};
use crate::olap::SalesInputs;
use crate::reference::{Expect, Rows, SalesRef};
use crate::trace::Tracer;

/// Rounds of the four requests in one page. A page of sixteen round trips
/// has a latency whose tail speaks of the server rather than of one
/// scheduling hiccup of the shared host.
const PAGE_ROUNDS: usize = 4;
/// Distinct rounds; page `i` uses rounds `PAGE_ROUNDS * i ..` modulo this.
const ROUND_SETS: usize = 256;
/// `ts` advances by 3 per row on average, so this span covers about one
/// 4096-row zone-map chunk.
const RANGE_TS: i64 = 3 * 4096;

const STATEMENTS: [(&str, &str); 4] = [
    (
        "point",
        "SELECT ts, store, price, qty FROM sales WHERE ts = ?",
    ),
    (
        "range",
        "SELECT COUNT(*) AS n, SUM(qty) AS q FROM sales WHERE ts BETWEEN ? AND ?",
    ),
    (
        "topk",
        "SELECT ts, price FROM sales WHERE ts BETWEEN ? AND ? ORDER BY price DESC LIMIT 5",
    ),
    (
        "dim_group",
        "SELECT region, COUNT(*) AS n FROM stores WHERE store_id < ? GROUP BY region",
    ),
];
const ROUNDTRIP_SPANS: [&str; 4] = [
    "server.roundtrip.point",
    "server.roundtrip.range",
    "server.roundtrip.topk",
    "server.roundtrip.dim_group",
];
const INPROCESS_SPANS: [&str; 4] = [
    "server.inprocess.point",
    "server.inprocess.range",
    "server.inprocess.topk",
    "server.inprocess.dim_group",
];

/// The arguments of one round of the four requests, as integers, and
/// their expected answers.
struct Round {
    args: [Vec<i64>; 4],
    expect: [Expect; 4],
}

impl Round {
    fn generate(r: &mut Rng, reference: &SalesRef, ts: &[i64]) -> Round {
        let point = ts[r.below(ts.len())];
        let lo = ts[r.below(ts.len())];
        let top = ts[r.below(ts.len())];
        let below = 1 + r.below(STORES) as i64;
        Round {
            expect: [
                reference.point(point),
                reference.range_ts(lo, lo + RANGE_TS),
                reference.topk_range(top, top + RANGE_TS, 5),
                reference.dim_group(below),
            ],
            args: [
                vec![point],
                vec![lo, lo + RANGE_TS],
                vec![top, top + RANGE_TS],
                vec![below],
            ],
        }
    }
}

fn bind_line(name: &str, args: &[i64]) -> String {
    let mut line = format!("BIND {name}");
    for a in args {
        line.push_str(&format!(" {a}"));
    }
    line.push('\n');
    line
}

fn param_values(args: &[i64]) -> ParamValues {
    args.iter()
        .fold(ParamValues::new(), |p, &a| p.number(a as f64))
}

/// One connection speaking the server's line protocol.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: SocketAddr) -> std::io::Result<Client> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        Ok(Client {
            reader: BufReader::new(writer.try_clone()?),
            writer,
        })
    }

    /// Send one request line; return the reply up to its `.` terminator.
    fn request(&mut self, line: &str) -> std::io::Result<String> {
        self.writer.write_all(line.as_bytes())?;
        let mut reply = String::new();
        loop {
            let mut l = String::new();
            if self.reader.read_line(&mut l)? == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "server closed",
                ));
            }
            if l.trim_end() == "." {
                return Ok(reply);
            }
            reply.push_str(&l);
        }
    }

    fn prepare_all(&mut self) -> std::io::Result<()> {
        for (name, sql) in STATEMENTS {
            let reply = self.request(&format!("PREPARE {name} {sql}\n"))?;
            if !reply.starts_with("OK prepared") {
                return Err(std::io::Error::other(format!("PREPARE {name}: {reply}")));
            }
        }
        Ok(())
    }
}

pub fn run(seed: u64, seconds: f64, mode: Mode, tracer: &mut Tracer) -> Outcome {
    let inputs = SalesInputs::generate(seed);
    let reference = SalesRef::new(&inputs.d);
    let mut pr = Rng::stream(seed, 20);
    let rounds: Vec<Round> = (0..ROUND_SETS)
        .map(|_| Round::generate(&mut pr, &reference, &inputs.d.ts))
        .collect();

    let mut out = Outcome::default();
    let setups = mode.setup_rounds(9);
    for setup in 0..setups {
        let mut clock = SetupClock::default();
        let engine = clock.time(TdpEngine::new);
        let session = clock.time(|| engine.session());
        tracer.set_on(mode == Mode::Traced);
        inputs.register(&session, &mut clock, tracer);
        tracer.set_on(false);
        let server = clock
            .time(|| TdpServer::bind(Arc::clone(&engine), "127.0.0.1:0", ServerConfig::default()))
            .expect("bind the server on loopback");
        let client = clock
            .time(|| {
                let mut c = Client::connect(server.local_addr())?;
                c.prepare_all()?;
                Ok::<_, std::io::Error>(c)
            })
            .expect("connect and prepare");
        out.setup_s.push(clock.seconds());
        if setup + 1 < setups {
            drop(client);
            server.shutdown();
            continue;
        }

        let before = Counters::snapshot(&session, &engine);
        (out.lat, out.tally) = load(client, &session, &rounds, mode, seconds, tracer);
        server.shutdown();

        if mode == Mode::Traced {
            for (j, (name, _)) in STATEMENTS.iter().enumerate() {
                out.layers.push((
                    format!("server.roundtrip_us.{name}"),
                    span_median(tracer, ROUNDTRIP_SPANS[j], 1e3),
                    "us",
                ));
                out.layers.push((
                    format!("server.inprocess_us.{name}"),
                    span_median(tracer, INPROCESS_SPANS[j], 1e3),
                    "us",
                ));
            }
            out.layers.push((
                "core.prepare_us".into(),
                span_median(tracer, "core.prepare", 1e3),
                "us",
            ));
            out.layers.push((
                "core.bind_us".into(),
                span_median(tracer, "core.bind", 1e3),
                "us",
            ));
            out.counters = Counters::snapshot(&session, &engine).since(&before);
        }
    }
    out
}

/// The client's closed loop. Traced pages replay their first round
/// afterwards through `prepare` + `bind` + `run` on an in-process session
/// of the same engine, outside the page's latency.
fn load(
    mut client: Client,
    session: &Session,
    rounds: &[Round],
    mode: Mode,
    seconds: f64,
    tracer: &mut Tracer,
) -> (Latencies, Tally) {
    let mut tally = Tally::default();
    let lat = closed_loop(mode, 20, seconds, tracer, &mut tally, |i, tr| {
        let first = i as usize * PAGE_ROUNDS;
        let page: Vec<&Round> = (first..first + PAGE_ROUNDS)
            .map(|k| &rounds[k % ROUND_SETS])
            .collect();
        let t = Instant::now();
        let mut replies = Vec::with_capacity(page.len() * STATEMENTS.len());
        for round in &page {
            for (j, (name, _)) in STATEMENTS.iter().enumerate() {
                let line = bind_line(name, &round.args[j]);
                match tr.span(ROUNDTRIP_SPANS[j], || client.request(&line)) {
                    Ok(reply) => replies.push(reply),
                    Err(e) => return (0.0, Err(Fail::error(name, e))),
                }
            }
        }
        let ms = ms_since(t);
        for (k, reply) in replies.iter().enumerate() {
            let (round, j) = (page[k / STATEMENTS.len()], k % STATEMENTS.len());
            let name = STATEMENTS[j].0;
            let rows = match Rows::from_reply(reply) {
                Ok(rows) => rows,
                Err(e) => return (ms, Err(Fail::error(name, e))),
            };
            if let Err(m) = round.expect[j].check(&rows) {
                return (ms, Err(Fail::wrong(name, m)));
            }
        }
        if tr.is_on() {
            let round = page[0];
            for (j, (name, sql)) in STATEMENTS.iter().enumerate() {
                let open = tr.enter(INPROCESS_SPANS[j]);
                let table = tr
                    .span("core.prepare", || session.prepare(sql))
                    .and_then(|p| tr.span("core.bind", || p.bind(param_values(&round.args[j]))))
                    .and_then(|b| b.run());
                tr.exit(open);
                match table {
                    Ok(t) => {
                        if let Err(m) = round.expect[j].check(&Rows::from_table(&t)) {
                            return (ms, Err(Fail::wrong(&format!("{name} (in-process)"), m)));
                        }
                    }
                    Err(e) => return (ms, Err(Fail::error(&format!("{name} (in-process)"), e))),
                }
            }
        }
        (ms, Ok(()))
    });
    (lat, tally)
}
