//! One-pass decoding of `/v1/predict` and `/v1/predict_batch` bodies.
//!
//! The body is read with the [`dse_util::json::Reader`] straight into
//! `String`, `Metric` and `Config` values; no tree is built. The outcome
//! is the same as parsing the body into a [`dse_util::json::Json`] tree
//! and converting its fields with `FromJson`. The first of duplicate keys
//! wins, unknown keys are skipped, a syntax error anywhere in the body
//! takes precedence over any field error, and field errors are checked in
//! the order `program`, `metric`, then the configuration(s). The unit
//! tests below pin that equivalence on seeded mutations of valid bodies.

use crate::http::Response;
use dse_sim::Metric;
use dse_space::Config;
use dse_util::json::{Decoded, Event, JsonError, Reader};

/// A decoded prediction request.
#[derive(Debug, PartialEq)]
pub(crate) struct Target<T> {
    pub(crate) program: String,
    pub(crate) metric: Metric,
    /// The `config` object or the `configs` array.
    pub(crate) configs: T,
}

/// Why a body was refused: the status, the part of the request at fault
/// (`body` for syntax errors), and the located error.
#[derive(Debug, PartialEq)]
pub(crate) struct Rejection {
    pub(crate) status: u16,
    pub(crate) part: &'static str,
    pub(crate) err: JsonError,
}

impl Rejection {
    pub(crate) fn response(&self) -> Response {
        Response::error(self.status, &format!("{}: {}", self.part, self.err))
    }
}

/// Decodes a `/v1/predict` body: `{program, metric, config}`.
pub(crate) fn single(text: &str) -> Result<Target<Config>, Rejection> {
    decode(text, "config", Config::from_reader)
}

/// Decodes a `/v1/predict_batch` body: `{program, metric, configs: [..]}`.
pub(crate) fn batch(text: &str) -> Result<Target<Vec<Config>>, Rejection> {
    decode(text, "configs", |r| r.read_array(Config::from_reader))
}

fn decode<T>(
    text: &str,
    field: &'static str,
    mut read: impl FnMut(&mut Reader<'_>) -> Result<Decoded<T>, JsonError>,
) -> Result<Target<T>, Rejection> {
    let syntax = |err| Rejection {
        status: 400,
        part: "body",
        err,
    };
    let mut r = Reader::new(text);
    let event = r.value().map_err(syntax)?;
    let at = r.value_start();
    let (mut program, mut metric, mut configs) = (None, None, None);
    if event == Event::Obj {
        while let Some(key) = r.next_key().map_err(syntax)? {
            match &*key {
                "program" if program.is_none() => {
                    program = Some(r.read_from_json::<String>().map_err(syntax)?);
                }
                "metric" if metric.is_none() => {
                    metric = Some(r.read_from_json::<Metric>().map_err(syntax)?);
                }
                k if k == field && configs.is_none() => {
                    configs = Some(read(&mut r).map_err(syntax)?);
                }
                _ => r.skip_value().map_err(syntax)?,
            }
        }
        r.finish().map_err(syntax)?;
    } else {
        let tree = r.json_from(event).map_err(syntax)?;
        r.finish().map_err(syntax)?;
        let err = tree.field("program").expect_err("a non-object value");
        return Err(Rejection {
            status: 400,
            part: "program",
            err: JsonError { offset: at, ..err },
        });
    }
    Ok(Target {
        program: required(program, "program", 400, at)?,
        metric: required(metric, "metric", 400, at)?,
        configs: required(configs, field, 422, at)?,
    })
}

/// The decoded value of a required top-level field; `at` is the byte
/// offset of the body's object, where a missing field is reported.
fn required<T>(
    value: Option<Decoded<T>>,
    key: &'static str,
    status: u16,
    at: usize,
) -> Result<T, Rejection> {
    let err = match value {
        Some(Ok(v)) => return Ok(v),
        Some(Err(e)) => e.in_path(key),
        None => JsonError {
            offset: at,
            ..JsonError::missing_field(key)
        },
    };
    Err(Rejection {
        status,
        part: key,
        err,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dse_rng::Xoshiro256;
    use dse_util::json::{FromJson, Json, ToJson};

    /// Mutated bodies the differential test checks.
    const CASES: usize = 4000;

    /// The decoding the handlers did before the reader: parse the whole
    /// body into a tree, then convert each field with `FromJson`.
    fn tree_decode<T: FromJson>(text: &str, field: &'static str) -> Result<Target<T>, Rejection> {
        let tree = Json::parse(text).map_err(|err| Rejection {
            status: 400,
            part: "body",
            err,
        })?;
        Ok(Target {
            program: tree_field(&tree, text, "program", 400)?,
            metric: tree_field(&tree, text, "metric", 400)?,
            configs: tree_field(&tree, text, field, 422)?,
        })
    }

    fn tree_field<T: FromJson>(
        tree: &Json,
        text: &str,
        key: &'static str,
        status: u16,
    ) -> Result<T, Rejection> {
        tree.get::<T>(key).map_err(|e| {
            // Errors with no key path (a missing field, a body that is
            // not an object) sit at the body's own value.
            let err = if e.path.is_empty() {
                let at = text.len() - text.trim_start_matches([' ', '\t', '\n', '\r']).len();
                JsonError { offset: at, ..e }
            } else {
                e.located_in(text)
            };
            Rejection {
                status,
                part: key,
                err,
            }
        })
    }

    /// A valid body with `n` configurations (`None`: a single one).
    fn body(rng: &mut Xoshiro256, n: Option<usize>) -> String {
        let programs = ["twolf", "gzip", "tab\there"];
        let metrics = ["Cycles", "Energy", "Edd"];
        let configs = dse_space::sample_legal(rng, n.unwrap_or(1));
        let (key, value) = match n {
            Some(_) => ("configs", configs.to_json()),
            None => ("config", configs[0].to_json()),
        };
        Json::obj([
            (
                "program",
                programs[rng.next_index(programs.len())].to_json(),
            ),
            ("metric", metrics[rng.next_index(metrics.len())].to_json()),
            (key, value),
        ])
        .to_string()
    }

    /// Picks one of `items`.
    fn pick<'a>(rng: &mut Xoshiro256, items: &[&'a str]) -> &'a str {
        items[rng.next_index(items.len())]
    }

    /// Byte offsets in `text` where `want` holds.
    fn spots(text: &str, want: impl Fn(u8) -> bool) -> Vec<usize> {
        (0..text.len())
            .filter(|&i| want(text.as_bytes()[i]))
            .collect()
    }

    /// Shuffles the entries of every object in `v`.
    fn reorder(rng: &mut Xoshiro256, v: &mut Json) {
        match v {
            Json::Obj(fields) => {
                rng.shuffle(fields);
                fields.iter_mut().for_each(|(_, v)| reorder(rng, v));
            }
            Json::Arr(items) => items.iter_mut().for_each(|v| reorder(rng, v)),
            _ => {}
        }
    }

    /// Applies one random mutation to the ASCII body `text`.
    fn mutate(rng: &mut Xoshiro256, text: &mut String) {
        const KEYS: &[&str] = &[
            "width",
            "rob",
            "l2_kb",
            "program",
            "metric",
            "config",
            "configs",
            "junk",
            "w\\u0069dth",
        ];
        const VALUES: &[&str] = &[
            "64",
            "64.0",
            "6.4e1",
            "-0",
            "4",
            "2048",
            "5",
            "-1",
            "4294967296",
            "1e999",
            "\"x\"",
            "null",
            "true",
            "[1]",
            "{}",
            "\"Cycles\"",
            "[]",
        ];
        let at = |rng: &mut Xoshiro256, spots: &[usize]| spots[rng.next_index(spots.len())];
        match rng.next_index(8) {
            // Truncation.
            0 => text.truncate(rng.next_index(text.len() + 1)),
            // A byte flip to structural characters, digits or letters.
            1 => {
                let i = rng.next_index(text.len());
                let b = pick(
                    rng,
                    &[
                        "{", "}", "[", "]", "\"", ",", ":", "0", "9", ".", "e", "-", "\\", " ", "a",
                    ],
                );
                text.replace_range(i..i + 1, b);
            }
            // An escape in a key or value: a letter becomes `\u00XX`.
            2 => {
                let letters = spots(text, |b| b.is_ascii_lowercase());
                if !letters.is_empty() {
                    let i = at(rng, &letters);
                    let escaped = format!("\\u{:04x}", text.as_bytes()[i]);
                    text.replace_range(i..i + 1, &escaped);
                }
            }
            // A duplicate or unknown key at the front of some object.
            3 => {
                let opens = spots(text, |b| b == b'{');
                if !opens.is_empty() {
                    let i = at(rng, &opens);
                    let entry = format!("\"{}\":{},", pick(rng, KEYS), pick(rng, VALUES));
                    text.insert_str(i + 1, &entry);
                }
            }
            // The same at the back of some object.
            4 => {
                let closes = spots(text, |b| b == b'}');
                if !closes.is_empty() {
                    let i = at(rng, &closes);
                    let entry = format!(",\"{}\":{}", pick(rng, KEYS), pick(rng, VALUES));
                    text.insert_str(i, &entry);
                }
            }
            // Reordered keys (only a parseable body has keys to move).
            5 => {
                if let Ok(mut v) = Json::parse(text) {
                    reorder(rng, &mut v);
                    *text = v.to_string();
                }
            }
            // Whitespace anywhere.
            6 => {
                let i = rng.next_index(text.len() + 1);
                let ws = pick(rng, &[" ", "\n", "\t\r", "  \n "]);
                text.insert_str(i, ws);
            }
            // A number respelled: `64.0`, `6.4e1`, `-0`, a leading zero, ….
            _ => {
                let starts: Vec<usize> = spots(text, |b| b.is_ascii_digit())
                    .into_iter()
                    .filter(|&i| i == 0 || !text.as_bytes()[i - 1].is_ascii_digit())
                    .collect();
                if !starts.is_empty() {
                    let i = at(rng, &starts);
                    let end = (i..text.len())
                        .find(|&j| !text.as_bytes()[j].is_ascii_digit())
                        .unwrap_or(text.len());
                    let n = &text[i..end];
                    let respelled = match rng.next_index(6) {
                        0 => format!("{n}.0"),
                        1 if n.len() > 1 => format!("{}.{}e{}", &n[..1], &n[1..], n.len() - 1),
                        2 => "-0".to_string(),
                        3 => format!("0{n}"),
                        4 => format!("{n}E+0"),
                        _ => format!("{n}.5"),
                    };
                    text.replace_range(i..end, &respelled);
                }
            }
        }
    }

    /// Checks one body both ways; returns the status (200 if accepted).
    fn check<T: FromJson + PartialEq + std::fmt::Debug>(
        text: &str,
        pulled: Result<Target<T>, Rejection>,
        field: &'static str,
    ) -> u16 {
        let tree = tree_decode::<T>(text, field);
        assert_eq!(pulled, tree, "reader and tree disagree on {text:?}");
        match pulled {
            Ok(_) => 200,
            Err(r) => {
                assert!(r.err.offset <= text.len(), "{text:?}: {:?}", r.err);
                assert!(!r.response().body.is_empty());
                if r.part != "body" {
                    let shown = r.err.to_string();
                    assert!(shown.contains("byte "), "{text:?}: {shown}");
                }
                r.status
            }
        }
    }

    #[test]
    fn reader_decode_agrees_with_tree_decode_on_mutated_bodies() {
        let mut rng = Xoshiro256::seed_from(0x5eed_dec0de);
        let mut seen = std::collections::BTreeMap::<u16, usize>::new();
        for case in 0..CASES {
            let batch = case % 2 == 0;
            let n = batch.then(|| rng.next_index(6));
            let mut text = body(&mut rng, n);
            for _ in 0..1 + rng.next_index(3) {
                mutate(&mut rng, &mut text);
            }
            let status = if batch {
                check(&text, super::batch(&text), "configs")
            } else {
                check(&text, single(&text), "config")
            };
            *seen.entry(status).or_default() += 1;
        }
        // The corpus reaches every outcome, each many times.
        for status in [200, 400, 422] {
            let n = seen.get(&status).copied().unwrap_or(0);
            assert!(
                n >= CASES / 20,
                "only {n} bodies answered {status}: {seen:?}"
            );
        }
    }

    #[test]
    fn valid_bodies_decode_to_the_sent_values() {
        let mut rng = Xoshiro256::seed_from(3);
        let configs = dse_space::sample_legal(&mut rng, 64);
        let text = Json::obj([
            ("program", "twolf".to_json()),
            ("metric", dse_sim::Metric::Cycles.to_json()),
            ("configs", configs.to_json()),
        ])
        .to_string();
        let got = batch(&text).unwrap();
        assert_eq!(got.program, "twolf");
        assert_eq!(got.metric, dse_sim::Metric::Cycles);
        assert_eq!(got.configs, configs);
    }

    #[test]
    fn rejections_keep_their_status_and_locate_the_field() {
        let cfg = dse_util::json::to_string(&Config::baseline());
        let bad = cfg.replace("\"width\":4", "\"width\":5");
        let text = format!(r#"{{"program":"p","metric":"Cycles","configs":[{cfg},{bad}]}}"#);
        let r = batch(&text).err().unwrap();
        assert_eq!((r.status, r.part), (422, "configs"));
        assert_eq!(r.err.path_string(), "$.configs[1].width");
        assert_eq!(r.err.offset, text.rfind("\"width\":5").unwrap() + 8);
        let text = format!(r#"{{"program":"p","metric":"Cycles","configs":[{bad}]"#);
        assert_eq!(batch(&text).err().unwrap().status, 400);
        let text = format!(r#"{{"program":7,"configs":[{bad}]}}"#);
        let r = batch(&text).err().unwrap();
        assert_eq!((r.status, r.part), (400, "program"));
        let text = format!(r#"{{"program":"p","metric":"Cycles","config":{bad}}}"#);
        let r = single(&text).err().unwrap();
        assert_eq!((r.status, r.part), (422, "config"));
        assert_eq!(r.err.path_string(), "$.config.width");
    }
}
