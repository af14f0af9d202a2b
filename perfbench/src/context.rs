//! The run context printed with every result: machine, toolchain, commit,
//! seed and thread counts, so a number is never read without them.

use std::process::Command;

/// The CPU brand string from `cpuid`, or `unknown`.
fn cpu_model() -> String {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::__cpuid;
        // SAFETY: `cpuid` exists on every x86-64 processor; leaf
        // 0x8000_0000 reports whether the brand-string leaves exist before
        // they are read.
        #[allow(unused_unsafe)]
        let max = unsafe { __cpuid(0x8000_0000) }.eax;
        if max >= 0x8000_0004 {
            let mut bytes = Vec::with_capacity(48);
            for leaf in 0x8000_0002u32..=0x8000_0004 {
                // SAFETY: as above; the leaf is within the reported range.
                #[allow(unused_unsafe)]
                let r = unsafe { __cpuid(leaf) };
                for word in [r.eax, r.ebx, r.ecx, r.edx] {
                    bytes.extend_from_slice(&word.to_le_bytes());
                }
            }
            let s = String::from_utf8_lossy(&bytes).trim_matches(char::from(0)).trim().to_string();
            if !s.is_empty() {
                return s;
            }
        }
    }
    "unknown".to_string()
}

/// `git rev-parse HEAD` of the working directory, or `unknown` (the
/// benchmark may run from a plain source tree).
fn commit() -> String {
    let cwd = std::env::current_dir().ok();
    let ceiling = cwd.as_ref().and_then(|d| d.parent()).map(|p| p.display().to_string());
    let mut cmd = Command::new("git");
    cmd.args(["rev-parse", "HEAD"]);
    if let Some(ceiling) = ceiling {
        // Never pick up a repository that merely encloses the checkout.
        cmd.env("GIT_CEILING_DIRECTORIES", ceiling);
    }
    cmd.output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// The context line: `{"context": {...}}`.
pub fn line(workload: &str, seed: u64, seconds: f64, trace: bool, threads: &str) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"context\":{{\"workload\":\"{}\",\"seed\":{seed},\"seconds\":{seconds},\"trace\":{trace},\"nproc\":{nproc},\"cpu_model\":\"{}\",\"rustc\":\"{}\",\"commit\":\"{}\",\"threads\":{threads}}}}}",
        escape(workload),
        escape(&cpu_model()),
        escape(env!("PERFBENCH_RUSTC_VERSION")),
        escape(&commit()),
    )
}
