//! `bench_ledger agree A B`: do two result files of the same commit
//! agree, every end-to-end metric within its own bound?

use crate::api::{parse_json, JsonValue};
use crate::metrics::END_TO_END;

/// One `run` record of a result file.
struct Record {
    workload: String,
    failed_share: f64,
    /// One value per end-to-end metric, in declared order.
    values: Vec<f64>,
}

fn records(text: &str) -> Result<Vec<Record>, String> {
    let mut out = Vec::new();
    for line in text.lines().filter(|l| l.trim_start().starts_with('{')) {
        let doc = parse_json(line)?;
        let text_of = |k: &str| doc.get(k).and_then(JsonValue::as_str);
        // A file holds the ledger's records between the contract's lines
        // and may hold traced runs; only untraced ledger records compare.
        if text_of("bench") != Some("bench_ledger") || text_of("mode") != Some("run") {
            continue;
        }
        let workload = text_of("workload").ok_or("a record without a workload")?;
        let metrics = doc.get("metrics").ok_or("a record without metrics")?;
        let mut values = Vec::new();
        for def in &END_TO_END {
            let value = metrics
                .get(def.name)
                .and_then(|m| m.get("value"))
                .and_then(JsonValue::as_f64)
                .ok_or_else(|| format!("{workload}: no number for {}", def.name))?;
            values.push(value);
        }
        out.push(Record {
            workload: workload.to_string(),
            failed_share: doc
                .get("failed_share")
                .and_then(JsonValue::as_f64)
                .ok_or_else(|| format!("{workload}: no failed_share"))?,
            values,
        });
    }
    if out.is_empty() {
        return Err("no bench_ledger run record".to_string());
    }
    Ok(out)
}

/// Compares two result files. `Ok` holds one line per compared metric;
/// `Err` holds the lines that disagree (or why the files cannot be
/// compared).
pub fn agree(a: &str, b: &str) -> Result<Vec<String>, Vec<String>> {
    let (a, b) = match (records(a), records(b)) {
        (Ok(a), Ok(b)) => (a, b),
        (a, b) => return Err([a.err(), b.err()].into_iter().flatten().collect()),
    };
    let (mut fine, mut off) = (Vec::new(), Vec::new());
    if a.len() != b.len() {
        off.push(format!("{} records against {}", a.len(), b.len()));
    }
    for (ra, rb) in a.iter().zip(&b) {
        if ra.workload != rb.workload {
            off.push(format!("{} against {}", ra.workload, rb.workload));
            continue;
        }
        if ra.failed_share != 0.0 || rb.failed_share != 0.0 {
            off.push(format!("{}: failed_share is not 0", ra.workload));
        }
        for (def, (va, vb)) in END_TO_END.iter().zip(ra.values.iter().zip(&rb.values)) {
            let bound = def.bound.unwrap_or(0.0);
            // Neither file is the parent: the two must be within the
            // bound of each other whichever is taken as the base.
            let apart = (va - vb).abs() / va.min(*vb).max(f64::MIN_POSITIVE);
            let line = format!(
                "{} {}: {va} against {vb} {}, {:.1}% apart, bound {:.0}%",
                ra.workload,
                def.name,
                def.unit,
                apart * 100.0,
                bound * 100.0
            );
            if apart <= bound {
                fine.push(line);
            } else {
                off.push(line);
            }
        }
    }
    if off.is_empty() {
        Ok(fine)
    } else {
        Err(off)
    }
}
