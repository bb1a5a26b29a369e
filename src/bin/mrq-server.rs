//! Standalone MRQ query server.
//!
//! Generates TPC-H data in memory, binds it into an `OwnedProvider`, and
//! serves the `mrq-protocol` wire protocol until a client sends a
//! `Shutdown` frame (or the process is killed).
//!
//! Knobs (all environment variables, matching the rest of the workspace):
//!
//! * `MRQ_ADDR` — listen address, default `127.0.0.1:7878`; use port `0`
//!   for an ephemeral port (printed on stdout).
//! * `MRQ_SF` — TPC-H scale factor, default `0.01`; a value that is not a
//!   positive number exits with status 2.
//! * `MRQ_THREADS` — per-query worker count (`ParallelConfig::from_env`).
//! * `MRQ_MAX_IN_FLIGHT` / `MRQ_MAX_QUEUE_DEPTH` — admission gate
//!   (`AdmissionConfig::from_env`; unbounded if unset).
//!
//! Talk to it with `mrq-client` (`mrq_client::Client::connect`) or the
//! `mrq-load` load generator's `--addr` flag.

use mrq_core::{AdmissionConfig, OwnedProvider, ParallelConfig, Provider};
use mrq_engine_native::RowStore;
use mrq_protocol::Server;
use mrq_tpch::gen::{scale_from_env, GenConfig, TpchData};
use mrq_tpch::load::{schema_of, value_rows};
use mrq_tpch::queries;
use std::sync::Arc;

fn main() {
    let addr = std::env::var("MRQ_ADDR").unwrap_or_else(|_| "127.0.0.1:7878".to_string());
    let scale = scale_from_env().unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });

    eprintln!("generating TPC-H data at scale factor {scale} ...");
    let data = TpchData::generate(GenConfig::scale(scale));

    let provider: OwnedProvider = {
        let mut provider = Provider::new();
        for (source, table) in [
            (queries::SRC_LINEITEM, "lineitem"),
            (queries::SRC_ORDERS, "orders"),
            (queries::SRC_CUSTOMER, "customer"),
        ] {
            let store = Arc::new(RowStore::from_rows(
                schema_of(table),
                &value_rows(&data, table),
            ));
            provider.bind_native_shared(source, store);
        }
        provider.set_parallelism(ParallelConfig::from_env());
        provider.set_admission(AdmissionConfig::from_env());
        provider.into_shared()
    };

    let mut server = Server::start(provider, &addr).expect("bind listen address");
    // The bound address goes to stdout so scripts binding port 0 can
    // discover the ephemeral port.
    println!("{}", server.local_addr());
    eprintln!("serving; send a Shutdown frame (mrq_client::Client::shutdown_server) to stop");
    server.wait();
    eprintln!("shutdown complete");
}
