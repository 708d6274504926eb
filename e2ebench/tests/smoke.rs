//! Tiny-scale smoke runs of every workload, checked against the metric
//! names and units `BENCHMARK.json` declares, and the record check seen
//! failing on a deliberately altered expected record.

use mm_engine::json::{self, Value};
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const WORKLOADS: [&str; 3] = ["paper-relaxed", "paper-fixed", "serve-warm"];

fn scratch(tag: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(tag);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn bench(args: &[&str], dir: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_mm-e2ebench"))
        .args(args)
        .args(["--scale", "tiny", "--seed", "1"])
        .arg("--work-dir")
        .arg(dir.join("work"))
        .arg("--trace-dir")
        .arg(dir.join("trace"))
        .output()
        .expect("the benchmark binary runs")
}

/// The result line: the last line of standard output.
fn result(out: &Output) -> Value {
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_else(|| {
        panic!(
            "no output; stderr:\n{}",
            String::from_utf8_lossy(&out.stderr)
        )
    });
    json::parse(last).unwrap()
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let doc = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    doc.get(section)
        .and_then(Value::as_arr)
        .unwrap()
        .iter()
        .map(|m| {
            let s = |k: &str| m.get(k).and_then(Value::as_str).unwrap().to_string();
            (s("name"), s("unit"))
        })
        .collect()
}

#[test]
fn every_workload_prints_the_declared_metrics() {
    for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
        let want = declared(section);
        for workload in WORKLOADS {
            let dir = scratch(&format!("smoke-{workload}-{trace}"));
            let out = bench(
                &["--workload", workload, "--seconds", "1", "--trace", trace],
                &dir,
            );
            assert!(
                out.status.success(),
                "{workload} trace {trace}:\n{}",
                String::from_utf8_lossy(&out.stderr)
            );
            let r = result(&out);
            assert_eq!(r.get("correct").and_then(Value::as_bool), Some(true));
            assert!(r.get("attempted").and_then(Value::as_usize).unwrap() >= 1);
            assert_eq!(r.get("failed").and_then(Value::as_usize), Some(0));
            let Some(Value::Obj(metrics)) = r.get("metrics") else {
                panic!("no metrics object")
            };
            let got: Vec<(String, String)> = metrics
                .iter()
                .map(|(name, v)| {
                    assert!(v.get("value").and_then(Value::as_f64).is_some(), "{name}");
                    (
                        name.clone(),
                        v.get("unit").and_then(Value::as_str).unwrap().to_string(),
                    )
                })
                .collect();
            assert_eq!(got, want, "{workload} trace {trace}");
            if trace == "0" {
                for (name, v) in metrics {
                    let value = v.get("value").and_then(Value::as_f64).unwrap();
                    assert!(value > 0.0, "{workload}: end-to-end {name} is {value}");
                }
            }
        }
    }
}

#[test]
fn an_altered_expected_record_fails_the_run() {
    for workload in ["paper-fixed", "serve-warm"] {
        let dir = scratch(&format!("altered-{workload}"));
        let listed = bench(&["--workload", workload, "--list-jobs"], &dir);
        assert!(listed.status.success());
        let stdout = String::from_utf8_lossy(&listed.stdout).to_string();
        let first = stdout
            .lines()
            .find(|name| name.contains("/dcs"))
            .expect("a drawn dcs job");

        let expected = dir.join("expected");
        std::fs::create_dir_all(&expected).unwrap();
        let file = format!("{workload}.jsonl");
        let original = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("expected")
            .join(&file);
        let text = std::fs::read_to_string(original).unwrap();
        let needle = format!("{{\"name\":\"{first}\",");
        let mut altered = 0;
        let lines: Vec<String> = text
            .lines()
            .map(|line| {
                if !line.starts_with(&needle) {
                    return line.to_string();
                }
                altered += 1;
                // One more parameterized bit than the flow produces.
                let at = line.find("\"param_bits\":").unwrap() + "\"param_bits\":".len();
                let end = at + line[at..].find(',').unwrap();
                let bits: usize = line[at..end].parse().unwrap();
                format!("{}{}{}", &line[..at], bits + 1, &line[end..])
            })
            .collect();
        assert_eq!(
            altered, 1,
            "the drawn job '{first}' has one expected record"
        );
        std::fs::write(expected.join(&file), lines.join("\n")).unwrap();

        let expected = expected.to_str().unwrap();
        let out = bench(
            &[
                "--workload",
                workload,
                "--seconds",
                "1",
                "--trace",
                "0",
                "--expected",
                expected,
            ],
            &dir,
        );
        assert_eq!(
            out.status.code(),
            Some(1),
            "{workload}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let r = result(&out);
        assert_eq!(r.get("correct").and_then(Value::as_bool), Some(false));
        let attempted = r.get("attempted").and_then(Value::as_usize).unwrap();
        let failed = r.get("failed").and_then(Value::as_usize).unwrap();
        assert!(
            failed >= 1 && failed * 2 <= attempted,
            "{workload}: {failed} of {attempted} failed"
        );
        let ok_rate = r
            .get("metrics")
            .and_then(|m| m.get("ok_rate"))
            .and_then(|m| m.get("value"))
            .and_then(Value::as_f64)
            .unwrap();
        let want = 1.0 - failed as f64 / attempted as f64;
        assert!(
            (ok_rate - want).abs() < 1e-9,
            "{workload}: ok_rate {ok_rate}, {failed} of {attempted} failed"
        );
        assert!(String::from_utf8_lossy(&out.stderr).contains("record mismatch"));
    }
}
