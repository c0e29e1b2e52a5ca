//! `rw_compiled`: the paper's §2.5.1 readers–writers `Database`, written
//! as ALPS source and built with parse → check → `spawn_compiled`. Eight
//! closed-loop callers, 90/10 Read/Write.
//!
//! The only workload that runs compiled ALPS code, pooled asynchronous
//! bodies (`start`/`await` on the hidden `Read` array) and multi-producer
//! intake through a guarded `select`. It uses no lane, shard or network.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use alps_core::{argv, ObjectHandle};
use alps_lang::{Compiled, Output};
use alps_runtime::{ProcHandle, Runtime};

use crate::measure::Rng;
use crate::nproc;
use crate::runner::{self, caller, CallerLog, Metric, Opts, Outcome, Phase, Rounds, Workload};
use crate::snap::CoreSnap;
use crate::trace::{self, Span};

const CALLERS: usize = 8;
const KEYS: i64 = 16;
/// A traced run traces every 16th call: about 100k calls in a 10 s run.
const TRACE_STRIDE: u64 = 16;

/// Readers run in parallel on up to four `Read` slots; a writer runs
/// alone. `WriterLast` alternates the two classes when both wait, so
/// neither starves. Record `k` starts at `-(k + 1)`.
const SOURCE: &str = r#"
object Database defines
  proc Read(Key: int) returns (int);
  proc Write(Key: int; Data: int);
end Database;

object Database implements
  var Store: list(int);

  proc Read[1..4](Key: int) returns (int);
  begin
    return (get(Store, Key))
  end Read;

  proc Write(Key: int; Data: int);
  begin
    set(Store, Key, Data)
  end Write;

  manager
    intercepts Read, Write;
    var ReadCount: int;
    var WriterLast: bool;
    begin
      loop
        (i: 1..4) accept Read[i]
            when ReadCount < 4 and (#Write = 0 or WriterLast) =>
          start Read[i];
          ReadCount := ReadCount + 1;
          WriterLast := false
      or
        (i: 1..4) await Read[i] =>
          finish Read[i];
          ReadCount := ReadCount - 1
      or
        accept Write when ReadCount = 0 and (#Read = 0 or not WriterLast) =>
          execute Write;
          WriterLast := true
      end loop
    end;

  var k: int;
  begin
    for k := 0 to 15 do
      push(Store, 0 - k - 1)
    end for
  end Database;
"#;

/// Written values carry their origin: `key << 40 | caller << 32 | seq`.
/// A read is correct if it returns the record's initial value or a value
/// whose caller had already issued write number `seq`.
fn check_read(key: i64, v: i64, issued: &[AtomicU64]) -> Result<(), String> {
    if v == -key - 1 {
        return Ok(());
    }
    let (k, c, seq) = (v >> 40, (v >> 32) & 0xff, v & 0xffff_ffff);
    let ok = v >= 0
        && k == key
        && (c as usize) < issued.len()
        && (seq as u64) < issued[c as usize].load(Ordering::Acquire);
    if ok {
        Ok(())
    } else {
        Err(format!("Read({key}) returned {v}, which no Write stored"))
    }
}

/// One round's live program.
pub struct Live {
    rt: Runtime,
    compiled: Compiled,
    db: ObjectHandle,
}

pub struct Rw {
    seed: u64,
    trace: bool,
    core: CoreSnap,
}

impl Workload for Rw {
    type Live = Live;

    fn setup(&mut self, round: u64, spans: &mut Vec<Span>) -> Live {
        let t = trace::now_ns();
        let rt = Runtime::thread_pool(nproc());
        spans.push(trace::close("setup.runtime", round, t));
        let t = trace::now_ns();
        let program = alps_lang::parse(SOURCE).expect("parse Database source");
        spans.push(trace::close("setup.parse", round, t));
        let t = trace::now_ns();
        let checked = Arc::new(alps_lang::check(program).expect("check Database source"));
        spans.push(trace::close("setup.check", round, t));
        let t = trace::now_ns();
        let compiled = alps_lang::spawn_compiled(&rt, &checked, Output::buffer().0)
            .expect("spawn compiled Database");
        let db = compiled.handle("Database").expect("Database handle");
        spans.push(trace::close("setup.spawn_compiled", round, t));
        Live { rt, compiled, db }
    }

    fn pids(&self, _: &Live) -> Vec<u32> {
        vec![std::process::id()]
    }

    fn callers(
        &mut self,
        live: &Live,
        phase: &Arc<Phase>,
        round: u64,
    ) -> Vec<ProcHandle<CallerLog>> {
        let issued: Arc<Vec<AtomicU64>> =
            Arc::new((0..CALLERS).map(|_| AtomicU64::new(0)).collect());
        let read = live.db.entry_id("Read").expect("Read entry");
        let write = live.db.entry_id("Write").expect("Write entry");
        (0..CALLERS)
            .map(|i| {
                let (db, phase, issued) = (live.db.clone(), Arc::clone(phase), Arc::clone(&issued));
                let id = round * CALLERS as u64 + i as u64;
                let mut rng = Rng::new(self.seed, id);
                let trace = self.trace;
                live.rt.spawn(move || {
                    caller(&phase, trace, id, TRACE_STRIDE, |_req| {
                        let key = rng.below(KEYS as u64) as i64;
                        if rng.below(10) == 0 {
                            let seq = issued[i].fetch_add(1, Ordering::AcqRel);
                            let v = key << 40 | (i as i64) << 32 | seq as i64;
                            return match db.call_id(write, argv![key, v]) {
                                Ok(_) => Outcome::Ok,
                                Err(_) => Outcome::Failed,
                            };
                        }
                        let Ok(r) = db.call_id(read, argv![key]) else {
                            return Outcome::Failed;
                        };
                        match r[0]
                            .as_int()
                            .map_err(|e| e.to_string())
                            .and_then(|v| check_read(key, v, &issued))
                        {
                            Ok(()) => Outcome::Ok,
                            Err(why) => Outcome::Wrong(why),
                        }
                    })
                })
            })
            .collect()
    }

    fn finish(&mut self, live: Live, _: &mut Vec<Span>, _: &mut Vec<String>) {
        self.core.add(&live.db.stats());
        self.teardown(live);
    }

    fn teardown(&mut self, live: Live) {
        live.compiled.shutdown();
        live.rt.shutdown();
    }
}

pub fn run(opts: &Opts) -> (Rounds, Vec<Metric>) {
    let mut rw = Rw {
        seed: opts.seed,
        trace: opts.trace,
        core: CoreSnap::default(),
    };
    let r = runner::run_rounds(&mut rw, opts);
    let mut layers = rw.core.metrics();
    for (name, span) in [
        ("lang.parse_ms", "setup.parse"),
        ("lang.check_ms", "setup.check"),
        ("lang.spawn_compiled_ms", "setup.spawn_compiled"),
    ] {
        layers.push(runner::metric(name, "ms", trace::median_ms(&r.spans, span)));
    }
    (r, layers)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_check_accepts_only_stored_values() {
        let issued: Vec<AtomicU64> = (0..CALLERS).map(|_| AtomicU64::new(0)).collect();
        issued[3].store(5, Ordering::Release);
        assert!(check_read(2, -3, &issued).is_ok());
        assert!(check_read(2, 2 << 40 | 3 << 32 | 4, &issued).is_ok());
        assert!(
            check_read(2, 2 << 40 | 3 << 32 | 5, &issued).is_err(),
            "not yet issued"
        );
        assert!(
            check_read(2, 1 << 40 | 3 << 32 | 4, &issued).is_err(),
            "other key"
        );
        assert!(
            check_read(2, 2 << 40 | 9 << 32, &issued).is_err(),
            "no such caller"
        );
        assert!(
            check_read(2, -2, &issued).is_err(),
            "other key's initial value"
        );
    }

    #[test]
    fn source_parses_and_checks() {
        let p = alps_lang::parse(SOURCE).expect("parse");
        alps_lang::check(p).expect("check");
    }
}
