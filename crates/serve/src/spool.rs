//! On-disk job spool: the server's crash-restart persistence.
//!
//! Each admitted job owns up to two files in the spool directory:
//!
//! * `job-NNNNNN.spec` — the [`JobSpec`] (written once at admission);
//! * `job-NNNNNN.ckpt` — the latest [`FlowCheckpoint`] (rewritten at
//!   every completed stage).
//!
//! Both are written atomically (temp file + rename) so a kill at any
//! instant leaves either the previous consistent file or the new one,
//! never a torn write. Terminal jobs have their files removed; whatever
//! a restarted server finds in the spool is exactly the set of jobs it
//! must finish.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use rdp_core::FlowCheckpoint;

use crate::job::JobSpec;

fn spec_path(dir: &Path, id: u64) -> PathBuf {
    dir.join(format!("job-{id:06}.spec"))
}

fn ckpt_path(dir: &Path, id: u64) -> PathBuf {
    dir.join(format!("job-{id:06}.ckpt"))
}

fn write_atomic(path: &Path, text: &str) -> io::Result<()> {
    let tmp = path.with_extension("tmp");
    fs::write(&tmp, text)?;
    fs::rename(&tmp, path)
}

/// Persists a job spec at admission.
pub fn write_spec(dir: &Path, id: u64, spec: &JobSpec) -> io::Result<()> {
    fs::create_dir_all(dir)?;
    write_atomic(&spec_path(dir, id), &spec.to_text())
}

/// Persists the latest checkpoint of a running job.
pub fn write_checkpoint(dir: &Path, id: u64, cp: &FlowCheckpoint) -> io::Result<()> {
    write_atomic(&ckpt_path(dir, id), &cp.to_text())
}

/// Removes a terminal job's spool files (missing files are fine).
pub fn remove_job(dir: &Path, id: u64) {
    let _ = fs::remove_file(spec_path(dir, id));
    let _ = fs::remove_file(ckpt_path(dir, id));
}

/// Scans the spool for unfinished jobs, returning `(id, spec,
/// checkpoint)` sorted by id. Unreadable or corrupt entries are skipped
/// with a warning on stderr — a damaged spool file must not take down
/// the whole server at startup.
pub fn scan(dir: &Path) -> Vec<(u64, JobSpec, Option<FlowCheckpoint>)> {
    let mut out = Vec::new();
    let entries = match fs::read_dir(dir) {
        Ok(e) => e,
        Err(_) => return out,
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(stem) = name
            .to_str()
            .and_then(|n| n.strip_suffix(".spec"))
            .and_then(|n| n.strip_prefix("job-"))
        else {
            continue;
        };
        let Ok(id) = stem.parse::<u64>() else { continue };
        let spec = match fs::read_to_string(entry.path()).map_err(|e| e.to_string()).and_then(
            |text| JobSpec::from_text(&text).map_err(|e| e.to_string()),
        ) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("[rdp-serve] skipping corrupt spool entry job-{id:06}: {e}");
                continue;
            }
        };
        let checkpoint = match fs::read_to_string(ckpt_path(dir, id)) {
            Ok(text) => match FlowCheckpoint::from_text(&text) {
                Ok(cp) => Some(cp),
                Err(e) => {
                    eprintln!(
                        "[rdp-serve] ignoring corrupt checkpoint of job-{id:06} \
                         (job restarts from scratch): {e}"
                    );
                    None
                }
            },
            Err(_) => None,
        };
        out.push((id, spec, checkpoint));
    }
    out.sort_by_key(|(id, _, _)| *id);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdp_gen::GeneratorConfig;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("rdp_spool_test_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn spool_round_trips_specs_and_survives_corruption() {
        let dir = tmp_dir("rt");
        let a = JobSpec::new(GeneratorConfig::tiny("a", 1));
        let b = JobSpec::new(GeneratorConfig::tiny("b", 2));
        write_spec(&dir, 3, &a).unwrap();
        write_spec(&dir, 1, &b).unwrap();
        // A corrupt spec and a stray file are skipped, not fatal.
        fs::write(dir.join("job-000009.spec"), "garbage").unwrap();
        fs::write(dir.join("README"), "not a job").unwrap();

        let jobs = scan(&dir);
        assert_eq!(jobs.len(), 2);
        assert_eq!(jobs[0].0, 1);
        assert_eq!(jobs[0].1, b);
        assert_eq!(jobs[1].0, 3);
        assert_eq!(jobs[1].1, a);
        assert!(jobs.iter().all(|(_, _, cp)| cp.is_none()));

        remove_job(&dir, 1);
        remove_job(&dir, 3);
        remove_job(&dir, 9);
        assert!(scan(&dir).is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_with_a_huge_count_is_recovered_as_none() {
        let dir = tmp_dir("huge");
        let spec = JobSpec::new(GeneratorConfig::tiny("a", 1));
        write_spec(&dir, 1, &spec).unwrap();
        // A corrupt count must not size an allocation: the job restarts
        // from scratch instead of the server aborting.
        let header = "rdp-checkpoint v1\nstage global_place\nlegal 0\nrounds_done 0\n\
                      hpwl 3ff0000000000000\ngp 0000000000000000 0 0000000000000000 0 0\n";
        fs::write(ckpt_path(&dir, 1), format!("{header}nodes 1099511627776\n")).unwrap();
        let jobs = scan(&dir);
        assert_eq!(jobs.len(), 1);
        assert_eq!(jobs[0].1, spec);
        assert!(jobs[0].2.is_none());
        let _ = fs::remove_dir_all(&dir);
    }
}
