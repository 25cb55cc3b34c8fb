//! Trace profiling: folds a `--trace-out` Chrome `trace_event` file
//! into collapsed-stack format (`frame;frame;frame value`, one line per
//! distinct stack), the input `flamegraph.pl` and speedscope accept.
//!
//! Spans in the trace are complete (`"ph":"X"`) events carrying `ts` and
//! `dur` in microseconds. Nesting is reconstructed per `tid` by interval
//! containment — a span is a child of the innermost span that encloses
//! it in time on the same thread — and each line's value is the span's
//! *self* time: its duration minus the duration of its direct children.

use dsolve_obs::{parse_json, Json};

/// One complete span from the trace.
struct Span {
    name: String,
    tid: u64,
    ts: u64,
    dur: u64,
}

/// Collapsed-stack frames never contain the separator or a newline.
fn frame(name: &str) -> String {
    name.replace([';', '\n'], "_")
}

/// Folds a trace (the JSON text of a `--trace-out` file) into
/// collapsed-stack lines, sorted for determinism. Stacks appearing on
/// several threads or several times are merged by summing self time;
/// zero-self-time stacks are dropped.
///
/// # Errors
///
/// Malformed JSON (a trace truncated by a crash is repaired by closing
/// the array before giving up).
pub fn collapse_trace(text: &str) -> Result<String, String> {
    let doc = parse_json(text).or_else(|e| {
        // A crashed run may lack the closing bracket; repair and retry.
        let repaired = format!("{}]", text.trim_end().trim_end_matches(','));
        parse_json(&repaired).map_err(|_| e)
    })?;
    let events = doc.as_arr().ok_or("trace root is not an array")?;
    let mut spans: Vec<Span> = Vec::new();
    for ev in events {
        if ev.get("ph").and_then(Json::as_str) != Some("X") {
            continue;
        }
        let (Some(name), Some(ts), Some(dur)) = (
            ev.get("name").and_then(Json::as_str),
            ev.get("ts").and_then(Json::as_num),
            ev.get("dur").and_then(Json::as_num),
        ) else {
            continue;
        };
        let tid = ev.get("tid").and_then(Json::as_num).unwrap_or(0.0);
        spans.push(Span {
            name: frame(name),
            tid: tid as u64,
            ts: ts as u64,
            dur: dur as u64,
        });
    }
    // Parents sort before children: by thread, then start time, then
    // longest duration first (an enclosing span starting at the same
    // instant is the parent).
    spans.sort_by(|a, b| {
        (a.tid, a.ts, std::cmp::Reverse(a.dur)).cmp(&(b.tid, b.ts, std::cmp::Reverse(b.dur)))
    });

    let mut totals: std::collections::BTreeMap<String, u64> = std::collections::BTreeMap::new();
    let mut cur_tid: Option<u64> = None;
    // The folding stack: entries carry (end, dur, path, child_dur).
    let mut st: Vec<(u64, u64, String, u64)> = Vec::new();
    let pop_into = |st: &mut Vec<(u64, u64, String, u64)>,
                    totals: &mut std::collections::BTreeMap<String, u64>| {
        let (_, dur, path, child_dur) = st.pop().unwrap();
        let self_us = dur.saturating_sub(child_dur);
        if self_us > 0 {
            *totals.entry(path).or_insert(0) += self_us;
        }
    };
    for s in &spans {
        if cur_tid != Some(s.tid) {
            while !st.is_empty() {
                pop_into(&mut st, &mut totals);
            }
            cur_tid = Some(s.tid);
        }
        let end = s.ts + s.dur;
        // Pop spans that ended before this one starts (or that cannot
        // contain it).
        while let Some(top) = st.last() {
            if s.ts >= top.0 {
                pop_into(&mut st, &mut totals);
            } else {
                break;
            }
        }
        if let Some(top) = st.last_mut() {
            top.3 += s.dur;
        }
        let path = match st.last() {
            Some((_, _, parent, _)) => format!("{parent};{}", s.name),
            None => s.name.clone(),
        };
        st.push((end, s.dur, path, 0));
    }
    while !st.is_empty() {
        pop_into(&mut st, &mut totals);
    }

    let mut out = String::new();
    for (path, us) in totals {
        out.push_str(&path);
        out.push(' ');
        out.push_str(&us.to_string());
        out.push('\n');
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(name: &str, tid: u64, ts: u64, dur: u64) -> String {
        format!(
            "{{\"name\":\"{name}\",\"cat\":\"c\",\"pid\":1,\"tid\":{tid},\
             \"ph\":\"X\",\"ts\":{ts},\"dur\":{dur}}}"
        )
    }

    #[test]
    fn nested_spans_fold_to_self_time() {
        let trace = format!(
            "[\n{},\n{},\n{}\n]",
            ev("root", 0, 0, 100),
            ev("child", 0, 10, 30),
            ev("grandchild", 0, 15, 5)
        );
        let out = collapse_trace(&trace).unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(
            lines,
            vec!["root 70", "root;child 25", "root;child;grandchild 5",]
        );
        // Self times sum back to the root's total duration.
        let total: u64 = lines
            .iter()
            .map(|l| l.rsplit(' ').next().unwrap().parse::<u64>().unwrap())
            .sum();
        assert_eq!(total, 100);
    }

    #[test]
    fn siblings_and_threads_merge() {
        let trace = format!(
            "[\n{},\n{},\n{},\n{},\n{}\n]",
            ev("root", 0, 0, 100),
            ev("work", 0, 0, 40),
            ev("work", 0, 50, 20),
            ev("root", 1, 0, 10),
            ev("work", 1, 2, 6)
        );
        let out = collapse_trace(&trace).unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines, vec!["root 44", "root;work 66"]);
    }

    #[test]
    fn non_span_events_and_metadata_are_ignored() {
        let trace = format!(
            "[\n{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\
             \"args\":{{\"name\":\"dsolve\"}}}},\n{},\n\
             {{\"name\":\"note\",\"cat\":\"c\",\"pid\":1,\"tid\":0,\"ph\":\"i\",\
             \"s\":\"t\",\"ts\":3}}\n]",
            ev("solo", 0, 0, 7)
        );
        let out = collapse_trace(&trace).unwrap();
        assert_eq!(out, "solo 7\n");
    }

    #[test]
    fn truncated_trace_is_repaired() {
        let trace = format!("[\n{},\n{}", ev("a", 0, 0, 10), ev("b", 0, 2, 3));
        let out = collapse_trace(&trace).unwrap();
        assert_eq!(out, "a 7\na;b 3\n");
    }

    #[test]
    fn semicolons_in_names_are_sanitized() {
        let trace = format!("[\n{}\n]", ev("a;b", 0, 0, 5));
        let out = collapse_trace(&trace).unwrap();
        assert_eq!(out, "a_b 5\n");
    }
}
