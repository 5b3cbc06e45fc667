//! `train_llp`: training steps of the paper's trainable query (Listing 9):
//! learning an income classifier from label proportions. A step registers
//! a bag, runs the differentiable `GROUP BY Income` count, takes the MSE
//! against the bag's label counts, back-propagates and steps Adam.

use std::sync::Arc;
use std::time::Instant;

use tdp_core::nn::{Adam, Optimizer};
use tdp_core::tensor::{F32Tensor, Rng64};
use tdp_core::{ParamValues, QueryConfig, TdpEngine};
use tdp_ml::ClassifyIncomesTvf;

use crate::data::{bags, BAGS, BAG_SIZE, LLP_FEATURES};
use crate::harness::{closed_loop, ms_since, span_median, Fail, Mode, Outcome, SetupClock, Tally};
use crate::reference::{soft_counts, REL_TOL};
use crate::trace::Tracer;

const SQL: &str = "SELECT Income, COUNT(*) FROM classify_incomes(bag) GROUP BY Income";
const LEARNING_RATE: f32 = 0.05;

pub fn run(seed: u64, seconds: f64, mode: Mode, tracer: &mut Tracer) -> Outcome {
    let bags = bags(seed);
    let features: Vec<F32Tensor> = bags
        .iter()
        .map(|b| F32Tensor::from_vec(b.features.clone(), &[BAG_SIZE, LLP_FEATURES]))
        .collect();
    let targets: Vec<F32Tensor> = bags
        .iter()
        .map(|b| F32Tensor::from_vec(b.counts.to_vec(), &[2]))
        .collect();

    let mut out = Outcome::default();
    // Set-up takes well under a millisecond, so more rounds are needed
    // for a steady median.
    let rounds = mode.setup_rounds(101);
    for round in 0..rounds {
        let mut clock = SetupClock::default();
        let tvf = Arc::new(ClassifyIncomesTvf::new(LLP_FEATURES, &mut Rng64::new(seed)));
        let engine = clock.time(TdpEngine::new);
        let session = clock.time(|| engine.session());
        clock.time(|| {
            session.register_tvf(tvf.clone());
            session.register_tensor("bag", features[0].clone());
        });
        let query = clock
            .time(|| {
                session
                    .prepare_with(SQL, QueryConfig::default().trainable(true))
                    .and_then(|p| p.bind(ParamValues::new()))
            })
            .expect("prepare the trainable query");
        let mut opt = clock.time(|| Adam::new(query.parameters(), LEARNING_RATE));
        out.setup_s.push(clock.seconds());
        if round + 1 < rounds {
            continue;
        }

        // Losses of the first epoch and, in a ring, of the latest one: the
        // memory stays the same however many steps a run takes.
        let (mut first, mut latest, mut steps) = (Vec::with_capacity(BAGS), vec![0.0; BAGS], 0);
        let mut tally = Tally::default();
        out.lat = closed_loop(mode, BAGS as u64, seconds, tracer, &mut tally, |i, tr| {
            let b = i as usize % BAGS;
            // The forward pass sees the parameters as they are before the step.
            let (w, bias) = (tvf.model.weight.value(), tvf.model.bias.value());
            let t = Instant::now();
            opt.zero_grad();
            tr.span("core.register_tensor", || {
                session.register_tensor("bag", features[b].clone())
            });
            let counts = match tr.span("exec.run_counts", || query.run_counts()) {
                Ok(c) => c,
                Err(e) => return (0.0, Err(Fail::error("run_counts", e))),
            };
            let loss = counts.mse_loss(&targets[b]);
            tr.span("autodiff.backward", || loss.backward());
            tr.span("nn.step", || opt.step());
            let ms = ms_since(t);

            let l = loss.value().data()[0] as f64;
            if first.len() < BAGS {
                first.push(l);
            }
            latest[steps % BAGS] = l;
            steps += 1;
            let want = soft_counts(&bags[b].features, LLP_FEATURES, w.data(), bias.data());
            let got = counts.value();
            for (g, w) in got.data().iter().zip(want) {
                if (*g as f64 - w).abs() > REL_TOL * w.abs().max(1.0) {
                    return (
                        ms,
                        Err(Fail::wrong(
                            "run_counts",
                            format!("soft counts {:?}, expected {want:?}", got.data()),
                        )),
                    );
                }
            }
            (ms, Ok(()))
        });

        // Training must make progress: the mean loss over the last epoch of
        // steps lies below the mean over the first.
        let epoch_mean = |w: &[f64]| w.iter().sum::<f64>() / w.len() as f64;
        if steps >= 2 * BAGS {
            let (first, last) = (epoch_mean(&first), epoch_mean(&latest));
            eprintln!(
                "train_llp: mean loss {first:.3} over the first epoch, {last:.3} over the last"
            );
            if last >= first {
                tally.violation(format!(
                    "loss did not fall: first epoch {first}, last epoch {last}"
                ));
            }
        } else {
            tally.violation(format!("{steps} steps, too few to compare two epochs"));
        }
        out.tally = tally;

        if mode == Mode::Traced {
            let layers = [
                (
                    "core.register_tensor_us",
                    span_median(tracer, "core.register_tensor", 1e3),
                    "us",
                ),
                (
                    "exec.run_counts_ms",
                    span_median(tracer, "exec.run_counts", 1.0),
                    "ms",
                ),
                (
                    "autodiff.backward_ms",
                    span_median(tracer, "autodiff.backward", 1.0),
                    "ms",
                ),
                ("nn.step_ms", span_median(tracer, "nn.step", 1.0), "ms"),
            ];
            out.layers
                .extend(layers.iter().map(|(n, v, u)| (n.to_string(), *v, *u)));
        }
    }
    out
}
