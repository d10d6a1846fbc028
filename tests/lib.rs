#![forbid(unsafe_code)]
//! Workspace-level integration tests for the big.TINY reproduction, and
//! [`pins`], the one store and comparator of every identity pin.

/// Identity pins as data. A family is one file, `tests/pins/<family>.txt`,
/// owned by one test: a `# ` header naming the columns (the first names
/// the key), then one `key<TAB>value<TAB>...` line per pinned cell. The
/// test computes the whole table and hands it to [`check`]. Tests never
/// write into the tree: re-pinning is the `cp` a failure prints.
pub mod pins {
    use std::path::PathBuf;

    /// A family's columns, then its rows in the order they were computed.
    #[derive(Debug, PartialEq, Eq)]
    pub struct Table {
        columns: Vec<String>,
        rows: Vec<(String, Vec<String>)>,
    }

    impl Table {
        /// An empty table over whitespace-separated column names.
        pub fn new(columns: &str) -> Table {
            Table { columns: columns.split_whitespace().map(String::from).collect(), rows: vec![] }
        }

        /// Appends one cell. A repeated key, a wrong number of values or a
        /// field the file format cannot hold is a bug in the test, so it
        /// panics.
        pub fn row(&mut self, key: impl Into<String>, values: impl IntoIterator<Item = String>) {
            let (key, values): (String, Vec<String>) = (key.into(), values.into_iter().collect());
            let fits = values.len() + 1 == self.columns.len()
                && values.iter().chain([&key]).all(|f| !f.is_empty() && !f.contains(['\t', '\n']))
                && self.get(&key).is_none();
            assert!(fits, "pins: row {key:?} repeats a key or does not fit {:?}", self.columns);
            self.rows.push((key, values));
        }

        /// The values of `key`.
        pub fn get(&self, key: &str) -> Option<&[String]> {
            self.rows.iter().find(|(k, _)| k == key).map(|(_, v)| &v[..])
        }

        fn render(&self) -> String {
            let rows =
                self.rows.iter().map(|(key, values)| format!("{key}\t{}\n", values.join("\t")));
            format!("# {}\n", self.columns.join("\t")) + &rows.collect::<String>()
        }

        fn parse(family: &str, text: &str) -> Result<Table, String> {
            let mut lines = text.lines();
            let header = lines.next().and_then(|line| line.strip_prefix("# "));
            let mut table = Table::new(header.ok_or(format!("pins {family}: no `# ` header"))?);
            for line in lines {
                let fields: Vec<&str> = line.split('\t').collect();
                let (key, width) = (fields[0], table.columns.len());
                if fields.len() != width || fields.contains(&"") {
                    return Err(format!("pins {family}: line {key:?} does not parse"));
                } else if table.get(key).is_some() {
                    return Err(format!("pins {family}: key {key:?} appears twice"));
                }
                table
                    .rows
                    .push((key.to_owned(), fields[1..].iter().map(|f| f.to_string()).collect()));
            }
            Ok(table)
        }
    }

    /// `v` as the pins write a hash: `0x` and 16 hex digits.
    pub fn hex(v: u64) -> String {
        format!("{v:#018x}")
    }

    fn pin_path(family: &str) -> PathBuf {
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(format!("pins/{family}.txt"))
    }

    /// The committed table of `family`; panics if it is missing or does
    /// not parse.
    pub fn pinned(family: &str) -> Table {
        let text = std::fs::read_to_string(pin_path(family)).unwrap_or_default();
        Table::parse(family, &text).unwrap_or_else(|e| panic!("{e}"))
    }

    /// `Ok` when `observed` is the table `pinned` holds, else a report: the
    /// family, lines moved out of total, the min / median / max Δ% of every
    /// `cycles` column, then every moved line as `old → new`.
    fn compare(family: &str, pinned: &str, observed: &Table) -> Result<(), String> {
        let pinned = Table::parse(family, pinned)?;
        let (mut moved, mut deltas) = (vec![], vec![]);
        for (key, new) in &observed.rows {
            let old = pinned.get(key);
            if old != Some(new) {
                let was = old.map_or("(not pinned)".to_owned(), |old| old.join(" "));
                moved.push(format!("{key}: {was} → {}", new.join(" ")));
                let cycles =
                    observed.columns[1..].iter().enumerate().filter(|(_, c)| c.ends_with("cycles"));
                for (i, _) in cycles {
                    let was = old.and_then(|old| old.get(i)?.parse::<f64>().ok());
                    if let (Some(a), Ok(b)) = (was, new[i].parse::<f64>()) {
                        deltas.extend(Some((b - a) / a * 100.0).filter(|d| d.is_finite()));
                    }
                }
            }
        }
        let missing: Vec<_> =
            pinned.rows.iter().filter(|(key, _)| observed.get(key).is_none()).collect();
        for (key, old) in &missing {
            moved.push(format!("{key}: {} → (not computed)", old.join(" ")));
        }
        let (lines, total) = (moved.len(), observed.rows.len() + missing.len());
        let [was, now] = [&pinned, observed].map(|t| t.columns.join(" "));
        if was != now {
            moved.push(format!("header: {was} → {now}"));
        }
        if moved.is_empty() {
            return Ok(());
        }
        deltas.sort_by(f64::total_cmp);
        let spread = match (deltas.first(), deltas.get(deltas.len() / 2), deltas.last()) {
            (Some(min), Some(mid), Some(max)) => {
                format!("cycles Δ% min {min:+.2} median {mid:+.2} max {max:+.2}")
            }
            _ => "no cycles column moved".to_owned(),
        };
        Err(format!(
            "pins {family}: {lines} of {total} lines moved; {spread}\n  {}",
            moved.join("\n  ")
        ))
    }

    /// Holds `observed` to `tests/pins/<family>.txt`. On a difference it
    /// writes `observed` to Cargo's `CARGO_TARGET_TMPDIR` (`<target>/tmp`; a
    /// test binary runs in `<target>/<profile>/deps`) and panics with the
    /// report and the `cp` that accepts it.
    pub fn check(family: &str, observed: &Table) {
        let path = pin_path(family);
        let Err(report) =
            compare(family, &std::fs::read_to_string(&path).unwrap_or_default(), observed)
        else {
            return;
        };
        let exe = std::env::current_exe().expect("a test binary has a path");
        let out = exe.ancestors().nth(3).expect("<target>/<profile>/deps").join("tmp/pins");
        let file = out.join(format!("{family}.txt"));
        match std::fs::create_dir_all(&out).and_then(|()| std::fs::write(&file, observed.render()))
        {
            Ok(()) => panic!("{report}\naccept with:\n  cp {} {}", file.display(), path.display()),
            Err(e) => panic!("{report}\n(writing {} failed: {e})", file.display()),
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        const PINNED: &str = "# cell\tcycles\thash\n\
            a @ x\t100\t0x0000000000000001\n\
            b @ x\t200\t0x0000000000000002\n\
            c @ x\t300\t0x0000000000000003\n";

        fn observed() -> Table {
            let mut t = Table::new("cell cycles hash");
            for (i, key) in ["a @ x", "b @ x", "c @ x"].into_iter().enumerate() {
                t.row(key, [(100 * (i as u64 + 1)).to_string(), hex(i as u64 + 1)]);
            }
            t
        }

        fn fails_naming(text: &str, what: &[&str]) {
            let err = compare("fam", text, &observed()).expect_err("the comparator passed");
            assert!(err.starts_with("pins fam: "), "the report names no family: {err}");
            for w in what {
                assert!(err.contains(w), "the report does not name {w:?}: {err}");
            }
        }

        #[test]
        fn the_table_round_trips_through_its_file() {
            assert_eq!(observed().render(), PINNED);
            assert_eq!(Table::parse("fam", PINNED), Ok(observed()));
            assert_eq!(compare("fam", PINNED, &observed()), Ok(()));
        }

        #[test]
        fn one_changed_digit_in_any_line_fails_naming_its_key() {
            for (key, old, new) in [
                ("a @ x", "100", "101"),
                ("b @ x", "0x0000000000000002", "0x0000000000000012"),
                ("c @ x", "300", "310"),
            ] {
                let line = PINNED.lines().find(|l| l.starts_with(key)).unwrap();
                let text = PINNED.replace(line, &line.replace(old, new));
                fails_naming(&text, &[&format!("{key}: "), "1 of 3 lines moved", " → "]);
            }
            let report = compare("fam", &PINNED.replace("\t200\t", "\t250\t"), &observed());
            assert!(report.unwrap_err().contains("cycles Δ% min -20.00 median -20.00 max -20.00"));
        }

        #[test]
        fn a_missing_or_an_extra_key_fails_naming_it() {
            let missing = PINNED.replace("b @ x\t200\t0x0000000000000002\n", "");
            fails_naming(&missing, &["b @ x: (not pinned)", "1 of 3 lines moved"]);
            let extra = format!("{PINNED}d @ x\t400\t0x0000000000000004\n");
            fails_naming(&extra, &["d @ x: 400 0x0000000000000004 → (not computed)", "1 of 4"]);
        }

        #[test]
        fn a_duplicate_key_fails_naming_it() {
            fails_naming(&format!("{PINNED}a @ x\t100\t0x0000000000000001\n"), &["a @ x", "twice"]);
        }

        #[test]
        fn an_unparseable_line_fails_naming_its_key() {
            let joined = PINNED.replace("\t0x0000000000000003", " 0x0000000000000003");
            fails_naming(&joined, &["\"c @ x\" does not parse"]);
            fails_naming(&PINNED.replace("c @ x\t", "c @ x\t\t"), &["\"c @ x\" does not parse"]);
            fails_naming(&format!("{PINNED}\n"), &["\"\" does not parse"]);
            fails_naming(&PINNED.replacen("# ", "", 1), &["no `# ` header"]);
        }

        #[test]
        fn an_empty_file_fails() {
            fails_naming("", &["no `# ` header"]);
        }
    }
}
