//! Reproduces the paper's evaluation and checks it against the paper's
//! claims: every row of [`oak_bench::paper::ROWS`], at full scale, in
//! one run.
//!
//! Prints one line per row (pass, measured, claim), writes
//! `BENCH_paper.json` (one object per row, with the figure's series),
//! rewrites the tables between EXPERIMENTS.md's `repro` markers, and
//! exits 1 if any row falls outside its band. Run from the repository
//! root:
//!
//! `cargo run --release -p oak-bench --bin repro`

use std::process::ExitCode;
use std::time::Instant;

use oak_bench::paper::{Measured, Paper, Row, ROWS};
use oak_json::Value;

const BEGIN: &str = "<!-- repro:begin -->";
const END: &str = "<!-- repro:end -->";

fn main() -> ExitCode {
    let started = Instant::now();
    let paper = Paper::default();
    let results: Vec<(&Row, Measured)> = ROWS
        .iter()
        .map(|row| {
            let measured = (row.run)(&paper);
            println!(
                "{:<24} {}  {}  [claim: {}]",
                row.id,
                verdict(&measured),
                measured.value,
                row.claim
            );
            (row, measured)
        })
        .collect();
    let failed = results.iter().filter(|(_, m)| !m.pass).count();
    println!(
        "\n{} rows, {failed} failed, {:.1} s",
        results.len(),
        started.elapsed().as_secs_f64()
    );

    let json: Vec<String> = results
        .iter()
        .map(|(row, m)| row_json(row, m).to_string())
        .collect();
    std::fs::write("BENCH_paper.json", format!("[\n{}\n]\n", json.join(",\n")))
        .expect("write BENCH_paper.json");
    // The device-confound study has its own table further down the file.
    let (confound, exhibits): (Vec<_>, Vec<_>) =
        results.iter().partition(|(row, _)| row.id == "detector");
    let doc = std::fs::read_to_string("EXPERIMENTS.md").expect("read EXPERIMENTS.md");
    match splice(&doc, &[table(&exhibits), table(&confound)]) {
        Some(doc) => std::fs::write("EXPERIMENTS.md", doc).expect("write EXPERIMENTS.md"),
        None => {
            eprintln!("EXPERIMENTS.md lacks two {BEGIN} … {END} regions");
            return ExitCode::FAILURE;
        }
    }
    println!("wrote BENCH_paper.json and EXPERIMENTS.md");
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn verdict(measured: &Measured) -> &'static str {
    if measured.pass {
        "pass"
    } else {
        "FAIL"
    }
}

fn row_json(row: &Row, measured: &Measured) -> Value {
    let mut doc = Value::object();
    doc.set("id", row.id);
    doc.set("section", row.section);
    doc.set("claim", row.claim);
    doc.set("measured", measured.value.as_str());
    doc.set("pass", measured.pass);
    let mut series = Value::object();
    for (name, points) in &measured.series {
        let points: Vec<Value> = points.iter().map(|&(x, y)| vec![x, y].into()).collect();
        series.set(*name, points);
    }
    doc.set("series", series);
    doc
}

/// The rows as a Markdown table.
fn table(rows: &[&(&Row, Measured)]) -> String {
    let mut out = String::from("| Row | § | Claim | Measured | |\n|---|---|---|---|---|\n");
    for (row, m) in rows {
        out.push_str(&format!(
            "| `{}` | {} | {} | {} | {} |\n",
            row.id,
            row.section,
            row.claim,
            m.value,
            verdict(m)
        ));
    }
    out
}

/// `doc` with the text between its successive marker pairs replaced by
/// `regions`, in order; `None` if a pair is missing.
fn splice(doc: &str, regions: &[String]) -> Option<String> {
    let mut out = String::new();
    let mut rest = doc;
    for region in regions {
        let (head, tail) = rest.split_once(BEGIN)?;
        let (_, tail) = tail.split_once(END)?;
        out.push_str(head);
        out.push_str(BEGIN);
        out.push('\n');
        out.push_str(region);
        out.push_str(END);
        rest = tail;
    }
    out.push_str(rest);
    Some(out)
}
