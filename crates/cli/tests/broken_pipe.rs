//! A reader that closes the pipe early (`scap sta … | head -2`) ends the
//! command quietly with exit 0 instead of a "failed printing to stdout"
//! panic (exit 101).

use std::io::{BufRead, BufReader, Read};
use std::process::{Command, Stdio};

#[test]
fn closing_stdout_after_two_lines_exits_quietly() {
    // Scale 0.1 prints over 64 KiB of endpoint lines, more than a pipe
    // buffers, so the command is still writing when the pipe closes and
    // the write after the close is bound to fail.
    let mut child = Command::new(env!("CARGO_BIN_EXE_scap"))
        .args(["sta", "--scale", "0.1", "--paths", "50"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("scap starts");
    let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
    for _ in 0..2 {
        let mut line = String::new();
        assert!(stdout.read_line(&mut line).expect("reads a line") > 0);
    }
    drop(stdout);
    let mut stderr = String::new();
    child
        .stderr
        .take()
        .expect("piped stderr")
        .read_to_string(&mut stderr)
        .expect("reads stderr");
    let status = child.wait().expect("scap exits");
    assert!(status.success(), "exit {status}, stderr: {stderr}");
    assert!(stderr.is_empty(), "stderr: {stderr}");
}
