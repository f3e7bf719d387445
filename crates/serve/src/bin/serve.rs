//! The `serve` CLI: run the batched inference server, or produce a demo
//! checkpoint to serve.
//!
//! ```text
//! serve --ckpt NAME=PATH [server flags]
//! serve demo-ckpt PATH [--arch NAME] [training flags]
//! ```
//!
//! `usage()` is the one list of flags (run `serve` with no arguments).
//! Flags are the only configuration: no environment variable is read here
//! (`LMMIR_THREADS`, read by `lmmir-par`, is the default behind `--threads`).

use lmm_ir::{
    build_dynamic_sample, build_predictor, build_sample, save_predictor, train, ArchConfig,
    ArchSpec, CheckpointMeta, DynamicIrConfig, IrPredictor, LmmIrConfig, TrainConfig, TrainSample,
};
use lmmir_pdn::{CaseKind, CaseSpec};
use lmmir_serve::{ModelSpec, RegistrySpec, ServeConfig, Server};
use std::process::ExitCode;
use std::time::Duration;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  serve [--addr A] --ckpt NAME=PATH [--ckpt ...] [--default NAME] \
         [--max-batch N] [--result-cache N] \
         [--idle-timeout-ms N] [--max-requests-per-conn N] [--max-connections N] \
         [--event-threads N] [--threads N] \
         [--watch-checkpoints] [--watch-interval-ms N]\n  \
         serve demo-ckpt PATH [--arch IREDGe|IRPnet|LMM-IR|DynIR|'1st Place'|'2nd Place'] \
         [--size 16] [--widths 12,24,48] [--windows 4] [--epochs 2] [--cases 2] [--seed 7]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("demo-ckpt") => demo_ckpt(&args[1..]),
        Some(_) => run_server(&args),
        None => usage(),
    }
}

/// A parsed `--flag VALUE` pair.
type Flag = (String, String);

/// Flags that take no value; parsed as `(name, "true")`.
const BOOL_FLAGS: &[&str] = &["watch-checkpoints"];

/// Parses `--flag VALUE` pairs into a list, rejecting unknown flags.
fn parse_flags(args: &[String], positional_max: usize) -> Option<(Vec<String>, Vec<Flag>)> {
    let mut positional = Vec::new();
    let mut flags = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if let Some(name) = a.strip_prefix("--") {
            if BOOL_FLAGS.contains(&name) {
                flags.push((name.to_string(), "true".to_string()));
                continue;
            }
            let value = it.next()?;
            flags.push((name.to_string(), value.clone()));
        } else {
            if positional.len() >= positional_max {
                return None;
            }
            positional.push(a.clone());
        }
    }
    Some((positional, flags))
}

fn parse<T: std::str::FromStr>(name: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("invalid --{name} {value:?}"))
}

/// How one server flag lands in the server's configuration.
type ApplyFlag = fn(&mut ServeConfig, &mut RegistrySpec, &str) -> Result<(), String>;

/// Every flag the server accepts; `worker_config` parses with this table.
const WORKER_FLAGS: &[(&str, ApplyFlag)] = &[
    ("addr", |cfg, _, v| {
        cfg.addr = v.to_string();
        Ok(())
    }),
    ("ckpt", |_, spec, v| match v.split_once('=') {
        Some((n, p)) if !n.is_empty() && !p.is_empty() => {
            spec.models.push(ModelSpec {
                name: n.to_string(),
                path: p.into(),
            });
            Ok(())
        }
        _ => Err(format!("--ckpt wants NAME=PATH, got {v:?}")),
    }),
    ("default", |_, spec, v| {
        spec.default_model = Some(v.to_string());
        Ok(())
    }),
    ("max-batch", |cfg, _, v| {
        parse("max-batch", v).map(|n: usize| cfg.max_batch = n.max(1))
    }),
    ("result-cache", |cfg, _, v| {
        parse("result-cache", v).map(|n| cfg.result_cache_capacity = n)
    }),
    ("idle-timeout-ms", |cfg, _, v| {
        parse("idle-timeout-ms", v).map(|n: u64| cfg.idle_timeout = Duration::from_millis(n.max(1)))
    }),
    ("max-requests-per-conn", |cfg, _, v| {
        parse("max-requests-per-conn", v).map(|n: usize| cfg.max_requests_per_conn = n.max(1))
    }),
    ("max-connections", |cfg, _, v| {
        parse("max-connections", v).map(|n: usize| cfg.max_connections = n.max(1))
    }),
    ("event-threads", |cfg, _, v| {
        parse("event-threads", v).map(|n: usize| cfg.event_threads = n.max(1))
    }),
    ("threads", |cfg, _, v| {
        parse("threads", v).map(|n: usize| cfg.threads = Some(n.max(1)))
    }),
    ("watch-checkpoints", |cfg, _, _| {
        cfg.watch_checkpoints = true;
        Ok(())
    }),
    ("watch-interval-ms", |cfg, _, v| {
        parse("watch-interval-ms", v)
            .map(|n: u64| cfg.watch_interval = Duration::from_millis(n.max(1)))
    }),
];

/// Builds the server's configuration from its parsed flags.
fn worker_config(flags: &[Flag]) -> Result<(ServeConfig, RegistrySpec), String> {
    let mut cfg = ServeConfig::default();
    let mut spec = RegistrySpec {
        models: Vec::new(),
        default_model: None,
    };
    for (name, value) in flags {
        let (_, apply) = WORKER_FLAGS
            .iter()
            .find(|(n, _)| n == name)
            .ok_or_else(|| format!("unknown flag --{name}"))?;
        apply(&mut cfg, &mut spec, value)?;
    }
    if spec.models.is_empty() {
        return Err("at least one --ckpt NAME=PATH is required".to_string());
    }
    Ok((cfg, spec))
}

fn run_server(args: &[String]) -> ExitCode {
    let Some((positional, flags)) = parse_flags(args, 0) else {
        return usage();
    };
    debug_assert!(positional.is_empty());
    let (cfg, spec) = match worker_config(&flags) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("serve: {e}");
            return usage();
        }
    };
    let server = match Server::start(cfg.clone(), spec) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("serve: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "[serve] listening on http://{} (max_batch {}, \
         result-cache {}, idle-timeout {:?}, max-reqs/conn {}, max-conns {}, \
         event-threads {}) — \
         POST /predict, GET /healthz, GET /metrics, POST /reload, POST /shutdown",
        server.addr(),
        cfg.max_batch,
        cfg.result_cache_capacity,
        cfg.idle_timeout,
        cfg.max_requests_per_conn,
        cfg.max_connections,
        cfg.event_threads,
    );
    server.wait();
    eprintln!("[serve] drained, bye");
    ExitCode::SUCCESS
}

/// `demo-ckpt` options after flag parsing.
struct DemoOpts {
    arch: String,
    size: usize,
    epochs: usize,
    cases: usize,
    seed: u64,
    widths: Option<Vec<usize>>,
    windows: Option<usize>,
}

/// Trains a small model on generated cases and writes a checkpoint the
/// server can load — the zero-to-serving path used by CI's smoke job.
fn demo_ckpt(args: &[String]) -> ExitCode {
    let Some((positional, flags)) = parse_flags(args, 1) else {
        return usage();
    };
    let Some(path) = positional.first() else {
        return usage();
    };
    let mut o = DemoOpts {
        arch: "IREDGe".to_string(),
        size: 16,
        epochs: 2,
        cases: 2,
        seed: 7,
        widths: None,
        windows: None,
    };
    for (name, value) in &flags {
        let result: Result<(), String> = match name.as_str() {
            "arch" => {
                o.arch = value.clone();
                Ok(())
            }
            "size" => parse("size", value).map(|v| o.size = v),
            "epochs" => parse("epochs", value).map(|v| o.epochs = v),
            "cases" => parse("cases", value).map(|v| o.cases = v),
            "seed" => parse("seed", value).map(|v| o.seed = v),
            "widths" => value
                .split(',')
                .map(|w| parse("widths", w.trim()))
                .collect::<Result<Vec<usize>, _>>()
                .map(|v| o.widths = Some(v)),
            "windows" => parse("windows", value).map(|v| o.windows = Some(v)),
            other => Err(format!("unknown flag --{other}")),
        };
        if let Err(e) = result {
            eprintln!("serve: {e}");
            return usage();
        }
    }
    match write_demo_ckpt(path, &o) {
        Ok(model) => {
            eprintln!(
                "[serve] wrote {path}: {model}, trained {} epoch(s) on {} generated case(s)",
                o.epochs, o.cases
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("serve: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Builds the requested family, trains it on generated cases (static
/// designs, or vector-based dynamic workloads with every window
/// golden-solved for `DynIR`) and saves it; returns a one-line description
/// of the model written.
fn write_demo_ckpt(path: &str, o: &DemoOpts) -> Result<String, String> {
    let (size, seed) = (o.size, o.seed);
    let arch = ArchSpec::from_name(&o.arch).ok_or_else(|| {
        format!(
            "unknown --arch {:?} (known: {})",
            o.arch,
            ArchSpec::known_names()
        )
    })?;
    if o.windows.is_some() && arch != ArchSpec::DynIr {
        return Err("--windows only configures --arch DynIR".to_string());
    }
    let windows = o.windows.unwrap_or(DynamicIrConfig::quick().windows);
    // DynIR and a custom LMM-IR width plan produce *full-config* checkpoints:
    // the saved file records the exact architecture, and the registry
    // rebuilds it from that record rather than assuming quick() widths.
    let config = match (arch, &o.widths) {
        (ArchSpec::DynIr, widths) => {
            let mut cfg = DynamicIrConfig {
                windows,
                input_size: size,
                seed,
                ..DynamicIrConfig::quick()
            };
            if let Some(widths) = widths {
                cfg.widths.clone_from(widths);
            }
            Some(ArchConfig::Dynamic(cfg))
        }
        (ArchSpec::LmmIr, Some(widths)) => Some(ArchConfig::LmmIr(LmmIrConfig {
            input_size: size,
            widths: widths.clone(),
            seed,
            ..LmmIrConfig::quick()
        })),
        (_, Some(_)) => return Err("--widths only configures --arch LMM-IR or DynIR".to_string()),
        (_, None) => None,
    };
    let channels = if arch == ArchSpec::DynIr {
        windows
    } else {
        arch.default_input_channels()
    };
    let meta = CheckpointMeta {
        model: o.arch.clone(),
        input_channels: channels,
        input_size: size,
        config,
    };
    let model = build_predictor(&meta)?;

    let case = |i: usize| {
        CaseSpec::new(
            format!("demo{i}"),
            size,
            size,
            seed + i as u64,
            CaseKind::Fake,
        )
    };
    let train_cfg = TrainConfig {
        epochs: o.epochs,
        pretrain_epochs: 0,
        oversample: (1, 1),
        seed,
        ..TrainConfig::quick()
    };
    let cases = 0..o.cases;
    let described = if arch == ArchSpec::DynIr {
        let samples = cases.map(|i| build_dynamic_sample(&case(i), windows, size));
        fit(model.as_ref(), samples.collect(), &train_cfg)?;
        format!("DynIR ({windows} windows, {size} px)")
    } else {
        let samples = cases.map(|i| build_sample(&case(i), size));
        fit(model.as_ref(), samples.collect(), &train_cfg)?;
        format!("{} ({channels} channels, {size} px)", o.arch)
    };
    save_predictor(model.as_ref(), path).map_err(|e| format!("saving checkpoint failed: {e}"))?;
    Ok(described)
}

/// Trains `model` on freshly generated samples of either kind.
fn fit<S: TrainSample, E: std::fmt::Display>(
    model: &dyn IrPredictor,
    samples: Result<Vec<S>, E>,
    cfg: &TrainConfig,
) -> Result<(), String> {
    let samples = samples.map_err(|e| format!("demo case generation failed: {e}"))?;
    train(model, &samples, cfg)
        .map(drop)
        .map_err(|e| format!("demo training failed: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_worker_flag_parses_and_serve_route_is_refused() {
        // One command line carrying every server flag.
        let args: Vec<String> = WORKER_FLAGS
            .iter()
            .flat_map(|(name, _)| {
                let value = if *name == "ckpt" {
                    "m=/tmp/m.lmmt"
                } else {
                    "3"
                };
                let value = (!BOOL_FLAGS.contains(name)).then(|| value.to_string());
                std::iter::once(format!("--{name}")).chain(value)
            })
            .collect();
        let (positional, flags) = parse_flags(&args, 0).unwrap();
        assert!(positional.is_empty());
        assert_eq!(flags.len(), WORKER_FLAGS.len());
        let (cfg, spec) = worker_config(&flags).unwrap();
        assert_eq!(cfg.addr, "3");
        assert_eq!((cfg.max_batch, cfg.event_threads), (3, 3));
        assert!(cfg.watch_checkpoints);
        assert_eq!(spec.models.len(), 1);
        // A removed flag is refused by name, not ignored.
        let removed = [
            ("ckpt".to_string(), "m=/tmp/m.lmmt".to_string()),
            ("quantized".to_string(), "true".to_string()),
        ];
        assert_eq!(
            worker_config(&removed).err().as_deref(),
            Some("unknown flag --quantized")
        );
        // `route` is no subcommand: it is a positional argument, which a
        // server command line refuses, so `serve route ...` exits with
        // usage instead of being served as a server.
        let route: Vec<String> = ["route", "--workers", "2", "--ckpt", "m=/tmp/m.lmmt"]
            .map(String::from)
            .to_vec();
        assert!(parse_flags(&route, 0).is_none());
    }
}
