//! The `incognito` command-line tool, driven as a subprocess.

use std::path::PathBuf;
use std::process::{Command, Output};

/// A spec and a 3-row CSV in a fresh directory; removed on drop.
struct Fixture {
    dir: PathBuf,
}

impl Fixture {
    fn new(name: &str) -> Fixture {
        let dir = std::env::temp_dir()
            .join(format!("incognito_cli_test_{name}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("spec.txt"), "Sex: suppression\nZipcode: round 2\n").unwrap();
        std::fs::write(
            dir.join("data.csv"),
            "Sex,Zipcode\nMale,53715\nFemale,53715\nMale,53703\n",
        )
        .unwrap();
        Fixture { dir }
    }

    fn run(&self, args: &[&str]) -> Output {
        let spec = self.dir.join("spec.txt");
        let data = self.dir.join("data.csv");
        Command::new(env!("CARGO_BIN_EXE_incognito"))
            .args(args)
            .arg("--spec")
            .arg(&spec)
            .arg("--data")
            .arg(&data)
            .output()
            .unwrap()
    }
}

impl Drop for Fixture {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

#[test]
fn k_zero_is_rejected_by_check_and_anonymize() {
    let fx = Fixture::new("k0");
    for command in ["check", "anonymize"] {
        let out = fx.run(&[command, "--qi", "Sex,Zipcode", "--k", "0"]);
        assert!(!out.status.success(), "{command} --k 0 must fail");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("--k must be a positive integer"),
            "{command}: unexpected stderr {stderr:?}"
        );
        assert!(
            !String::from_utf8_lossy(&out.stdout).contains("k-anonymous"),
            "{command} must not report a verdict"
        );
    }
}

#[test]
fn check_accepts_a_positive_k() {
    let fx = Fixture::new("k1");
    let out = fx.run(&["check", "--qi", "Sex,Zipcode", "--k", "1"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).starts_with("k-anonymous"));
}
