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
