//! The unified experiment driver: `paperbench <name>|all [flags]` runs
//! any registry experiment (`paperbench --list` enumerates them). Flags:
//! --fast --full --sample N --jobs N --threads N --table-cache PATH
//! --trace PATH --simulated-k8 --distribute ADDR:NWORKERS
//! --dist-retries N --dist-timeout-secs N --dist-hedge.

fn main() -> std::process::ExitCode {
    paperbench::cli::main()
}
