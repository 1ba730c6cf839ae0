//! STM as a server: a TCP wire protocol over the erased [`DynStm`]
//! facade.
//!
//! **`PROTOCOL.md` at the repository root is the normative wire
//! specification**; this crate implements it. The shape in one paragraph:
//! clients speak length-prefixed frames carrying argument-vector requests
//! (`GET`/`SET`/`CAS`/`ADD`, `MULTI`…`EXEC` for multi-key atomic
//! transactions, `WAIT` for blocking reads) and receive tagged replies.
//! Every data command — and every `EXEC` body as a whole — executes as
//! **one transaction** on a runtime-selected engine (any of the five
//! STMs, optionally wrapped in the SSI certifier), so the isolation the
//! client observes is exactly the isolation the engine provides.
//!
//! The moving parts:
//!
//! * [`frame`] — the zero-copy codec (property-tested, mutated and fed
//!   random bytes in `tests/frame_props.rs`);
//! * [`socket`] — the [`Socket`](socket::Socket) transport trait and the
//!   [`ChaosSocket`](socket::ChaosSocket) fault injector;
//! * [`registry`] — engine-name → [`DynStm`] selection;
//! * [`command`] — request → transaction-body compilation;
//! * [`server`] — accept loop, connection state machine, transactions
//!   run on the connection thread behind the execution gate, clean
//!   shutdown;
//! * [`client`] — the blocking scripted client;
//! * [`workload`] — the RPS measurement harness behind
//!   `repro_figures server`.
//!
//! ```
//! use zstm_server::client::Client;
//! use zstm_server::server::{ServerConfig, ServerHandle};
//!
//! let server = ServerHandle::spawn("127.0.0.1:0", &ServerConfig::new("z")).unwrap();
//! let mut client = Client::connect(server.addr()).unwrap();
//!
//! client.set(b"alpha", b"1").unwrap();
//! // A MULTI body is one atomic transaction — both ADDs or neither.
//! let replies = client
//!     .multi_exec(&[
//!         vec![b"ADD".to_vec(), b"a".to_vec(), b"-5".to_vec()],
//!         vec![b"ADD".to_vec(), b"b".to_vec(), b"5".to_vec()],
//!     ])
//!     .unwrap();
//! assert_eq!(replies.len(), 2);
//! server.shutdown();
//! ```
//!
//! [`DynStm`]: zstm_api::DynStm

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod command;
pub mod frame;
pub mod registry;
pub mod server;
pub mod socket;
pub mod workload;
