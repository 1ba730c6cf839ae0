//! Command parsing and the compilation of commands into one atomic
//! transaction body.
//!
//! A connection's data commands — alone or queued under `MULTI` — are
//! compiled into a *plan*: the keys are resolved against the key
//! directory **before** the transaction starts (creating variables for
//! write-ish commands, see PROTOCOL.md § keys), and the plan then runs as
//! a single [`DynTx`] closure. The closure is re-runnable (transaction
//! bodies execute once per attempt), so it rebuilds its reply vector from
//! scratch on every attempt.

use std::sync::Arc;

use zstm_api::{DynStm, DynTx, DynVar};
use zstm_core::Abort;
use zstm_util::sync::Mutex;

use crate::frame::Reply;

/// Maximum queued commands per `MULTI` body.
pub const MAX_MULTI: usize = 1 << 10;

/// `EXEC` bodies touching more keys than this run as
/// [`TxKind::Long`](zstm_core::TxKind::Long) — the paper's long-
/// transaction shape (Compute-Total-style multi-key work), which Z-STM
/// executes in zones and LSA without read-set revalidation.
pub const LONG_TX_THRESHOLD: usize = 4;

/// One data command, owned (so `MULTI` can queue it after its frame's
/// buffer is gone).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Command {
    /// `GET key` — read; nil if the key does not exist.
    Get(Vec<u8>),
    /// `SET key value` — create-or-overwrite.
    Set(Vec<u8>, Vec<u8>),
    /// `CAS key expected new` — write `new` iff the current value equals
    /// `expected`; replies `:1` (swapped) or `:0` (mismatch).
    Cas(Vec<u8>, Vec<u8>, Vec<u8>),
    /// `ADD key delta` — interpret the value as a little-endian `i64`
    /// (missing or empty = 0), add `delta`, write back; replies the new
    /// value.
    Add(Vec<u8>, i64),
}

impl Command {
    /// The key this command touches.
    pub fn key(&self) -> &[u8] {
        match self {
            Command::Get(k) | Command::Set(k, _) | Command::Cas(k, _, _) | Command::Add(k, _) => k,
        }
    }

    /// Whether the command may write (and therefore auto-creates its
    /// key).
    pub fn creates_key(&self) -> bool {
        !matches!(self, Command::Get(_))
    }

    /// Parses a data command from request arguments; `Err` carries the
    /// protocol error reply. Non-data commands (`PING`, `MULTI`, ...)
    /// return `Ok(None)`.
    pub fn parse(args: &[&[u8]]) -> Result<Option<Command>, Reply> {
        let arity = |n: usize| -> Result<(), Reply> {
            if args.len() == n + 1 {
                Ok(())
            } else {
                Err(Reply::error(&format!(
                    "ERR wrong number of arguments ({} given)",
                    args.len() - 1
                )))
            }
        };
        match args[0] {
            b"GET" => {
                arity(1)?;
                Ok(Some(Command::Get(args[1].to_vec())))
            }
            b"SET" => {
                arity(2)?;
                Ok(Some(Command::Set(args[1].to_vec(), args[2].to_vec())))
            }
            b"CAS" => {
                arity(3)?;
                Ok(Some(Command::Cas(
                    args[1].to_vec(),
                    args[2].to_vec(),
                    args[3].to_vec(),
                )))
            }
            b"ADD" => {
                arity(2)?;
                let delta = std::str::from_utf8(args[2])
                    .ok()
                    .and_then(|s| s.parse::<i64>().ok())
                    .ok_or_else(|| Reply::error("ERR delta is not an ASCII i64"))?;
                Ok(Some(Command::Add(args[1].to_vec(), delta)))
            }
            _ => Ok(None),
        }
    }
}

/// Decodes a stored value as the `ADD` integer representation: empty is
/// zero, eight little-endian bytes are the value, anything else is a type
/// error.
pub fn decode_i64(bytes: &[u8]) -> Option<i64> {
    match bytes.len() {
        0 => Some(0),
        8 => Some(i64::from_le_bytes(bytes.try_into().expect("len checked"))),
        _ => None,
    }
}

/// Encodes the `ADD` integer representation (the inverse of
/// [`decode_i64`]'s eight-byte arm).
pub fn encode_i64(value: i64) -> [u8; 8] {
    value.to_le_bytes()
}

/// One command with its key resolved: `None` means the key did not exist
/// and the command never creates it (a `GET` on a missing key).
pub struct Planned {
    /// The command to run.
    pub command: Command,
    /// The resolved variable, if the key exists (or was just created).
    pub var: Option<DynVar>,
}

/// Compiles a plan into a re-runnable transaction body writing its
/// replies (one per command, in order) into `out`.
///
/// The body clears `out` at the start of every attempt, so an aborted
/// attempt's partial replies never leak into the committed result.
pub fn compile(
    plan: Vec<Planned>,
    out: Arc<Mutex<Vec<Reply>>>,
) -> impl FnMut(&mut dyn DynTx) -> Result<(), Abort> + Send + 'static {
    move |tx| {
        let mut replies = Vec::with_capacity(plan.len());
        for planned in &plan {
            let reply = match (&planned.command, &planned.var) {
                (Command::Get(_), None) => Reply::Nil,
                // `GET` copies the lent bytes once, into the reply that
                // owns them; the commands that only inspect a value look
                // at it in place.
                (Command::Get(_), Some(var)) => Reply::Value(tx.map_bytes(var, <[u8]>::to_vec)?),
                (Command::Set(_, value), Some(var)) => {
                    tx.write_shared(var, Arc::from(&value[..]))?;
                    Reply::status("OK")
                }
                (Command::Cas(_, expected, new), Some(var)) => {
                    if tx.map_bytes(var, |current| current == &expected[..])? {
                        tx.write_shared(var, Arc::from(&new[..]))?;
                        Reply::Int(1)
                    } else {
                        Reply::Int(0)
                    }
                }
                (Command::Add(_, delta), Some(var)) => match tx.map_bytes(var, decode_i64)? {
                    Some(current) => {
                        let new = current.wrapping_add(*delta);
                        tx.write_shared(var, Arc::from(encode_i64(new)))?;
                        Reply::Int(new)
                    }
                    None => Reply::error("ERR value is not an integer"),
                },
                // Write-ish commands always resolve a var (they create
                // missing keys), so these arms are unreachable by
                // construction in `resolve`.
                (_, None) => Reply::error("ERR internal: unresolved key"),
            };
            replies.push(reply);
        }
        *out.lock() = replies;
        Ok(())
    }
}

/// Resolves every command's key against the directory, creating variables
/// for commands that may write (PROTOCOL.md § keys: keys spring into
/// existence holding the empty value).
pub fn resolve(
    stm: &Arc<dyn DynStm>,
    directory: &Mutex<std::collections::HashMap<Vec<u8>, DynVar>>,
    commands: Vec<Command>,
) -> Vec<Planned> {
    let mut directory = directory.lock();
    commands
        .into_iter()
        .map(|command| {
            let var = if command.creates_key() {
                Some(
                    directory
                        .entry(command.key().to_vec())
                        .or_insert_with(|| stm.new_bytes(Vec::new()))
                        .clone(),
                )
            } else {
                directory.get(command.key()).cloned()
            };
            Planned { command, var }
        })
        .collect()
}
