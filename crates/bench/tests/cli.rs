//! `paper_tables` command line: section ids are validated, and a section
//! runs end to end through the binary.

use std::process::{Command, Output};

fn paper_tables(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_paper_tables"))
        .args(args)
        .output()
        .expect("run paper_tables")
}

#[test]
fn rivbrk_quick_prints_its_three_rows() {
    let out = paper_tables(&["rivbrk", "--quick"]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let rows = stdout.lines().filter(|l| l.starts_with("RIVBRK")).count();
    assert_eq!(rows, 3, "{stdout}");
}

#[test]
fn unknown_section_id_is_rejected_by_name() {
    let out = paper_tables(&["fig12", "bogus", "--quick"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stderr).contains("bogus"));
    assert!(out.stdout.is_empty(), "no section may run before the error");
}

/// Rows of `stdout` whose experiment column is `id`.
fn rows(out: &Output, id: &str) -> usize {
    let stdout = String::from_utf8_lossy(&out.stdout);
    stdout
        .lines()
        .filter(|l| l.split_whitespace().next() == Some(id))
        .count()
}

#[test]
fn alloc_sections_print_every_cell() {
    let out = paper_tables(&["alloc", "largeregion", "--quick"]);
    assert!(out.status.success(), "{out:?}");
    // churn at 1/2/4/8/16 threads and prodcons at 2/4/8/16.
    assert_eq!(rows(&out, "ALLOCSCALE"), 9, "{out:?}");
    // The two quick sizes, 16 and 64 MiB.
    assert_eq!(rows(&out, "LARGEREGION"), 2, "{out:?}");
}

#[test]
fn overrides_win_over_quick_in_either_order() {
    for args in [
        ["fig15", "--words", "5000", "--quick"],
        ["fig15", "--quick", "--words", "5000"],
    ] {
        let out = paper_tables(&args);
        assert!(out.status.success(), "{args:?}: {out:?}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        let fig15: Vec<&str> = stdout.lines().filter(|l| l.starts_with("FIG15")).collect();
        assert_eq!(fig15.len(), 6, "{args:?}: one row per repr\n{stdout}");
        assert!(
            fig15.iter().all(|l| l.contains("0.005M words")),
            "{args:?}: --words must survive --quick\n{stdout}"
        );
    }
}

#[test]
fn malformed_or_zero_word_counts_are_usage_errors() {
    for args in [
        ["fig15", "--words", "0,abc", "--quick"],
        ["fig15", "--quick", "--words", "0,abc"],
        ["fig15", "--quick", "--words", "1000,0"],
        ["fig15", "--quick", "--words", "1000,abc"],
    ] {
        let out = paper_tables(&args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
        assert!(out.stdout.is_empty(), "{args:?}: no section may run");
    }
}
