//! Store and wire costs of the replayed jobs, measured through the
//! crates' public APIs on the bench's own clock.

use crate::stats::median;
use marioh_core::SavedModel;
use marioh_store::{
    encode_result, ArtifactStore, DiskStore, JobResult, JobSpec, JobStore, SpecHash, Transition,
};
use marioh_wire::{encode_frame, Message, HEADER_LEN};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Store operations timed per kind.
const STORE_OPS: usize = 48;

/// Encode/decode repetitions per wire message.
const WIRE_REPS: usize = 16;

fn us(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

/// Medians, in microseconds, of the store calls a served job makes.
#[derive(Debug, Default)]
pub struct StoreCost {
    pub submit_us: f64,
    pub finish_us: f64,
    pub put_result_us: f64,
    pub get_result_us: f64,
    pub probe_miss_us: f64,
}

/// Replays the job records and artifacts of `items` through
/// `JobStore`/`ArtifactStore` on a fresh `DiskStore` in `dir`: submit,
/// finish (the `Done` transition), result put and get, and a negative
/// cache probe.
pub fn store_replay(dir: &Path, items: &[(JobSpec, Arc<JobResult>)]) -> Result<StoreCost, String> {
    let store = DiskStore::open(dir, 1_000_000).map_err(|e| e.to_string())?;
    let (mut submit, mut finish, mut put, mut get, mut probe) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for i in 0..STORE_OPS {
        let (spec, result) = &items[i % items.len()];
        let hash = spec.content_hash().map_err(|e| e.to_string())?;
        let t = Instant::now();
        let id = store.submit(spec, &hash);
        submit.push(us(t));
        store.start(id).ok_or("store lost a submitted job")?;
        let t = Instant::now();
        store.transition(
            id,
            Transition::Done {
                result: Arc::clone(result),
                cached: false,
            },
        );
        finish.push(us(t));
        let key = SpecHash::of(format!("servebench artifact {i}").as_bytes());
        let t = Instant::now();
        store.put_result(&key, result).map_err(|e| e.to_string())?;
        put.push(us(t));
        let t = Instant::now();
        let back = store.get_result(&key);
        get.push(us(t));
        match back {
            Some(r) if r.jaccard.to_bits() == result.jaccard.to_bits() => {}
            _ => {
                return Err(format!(
                    "store returned a different result for artifact {i}"
                ))
            }
        }
        let miss = SpecHash::of(format!("servebench miss {i}").as_bytes());
        let t = Instant::now();
        let hit = store.contains_result(&miss);
        probe.push(us(t));
        if hit {
            return Err("negative probe hit".to_owned());
        }
    }
    Ok(StoreCost {
        submit_us: median(&submit),
        finish_us: median(&finish),
        put_result_us: median(&put),
        get_result_us: median(&get),
        probe_miss_us: median(&probe),
    })
}

/// Sizes and codec times of the wire frames a sharded job travels in.
#[derive(Debug, Default)]
pub struct WireCost {
    pub dispatch_kb: Vec<f64>,
    pub result_kb: Vec<f64>,
    pub encode_us: Vec<f64>,
    pub decode_us: Vec<f64>,
}

fn model_bytes(model: &SavedModel) -> Vec<u8> {
    let mut bytes = Vec::new();
    model
        .write_to(&mut bytes)
        .expect("writing a model to a Vec cannot fail");
    bytes
}

impl WireCost {
    /// Builds the `Dispatch` and `Result` messages the dispatcher and a
    /// shard worker exchange for one job, and times `encode_frame` and
    /// `Message::decode_payload` on each. Decoding must give back the
    /// message that was encoded.
    pub fn add_job(
        &mut self,
        job: u64,
        spec: &JobSpec,
        reuse: Option<&SavedModel>,
        result: &JobResult,
        trained: Option<&SavedModel>,
    ) -> Result<(), String> {
        let spec_hash = *spec.content_hash().map_err(|e| e.to_string())?.as_bytes();
        let dispatch = Message::Dispatch {
            job,
            spec_hash,
            spec_json: spec.to_json().to_string(),
            model: reuse.map(model_bytes),
        };
        let done = Message::Result {
            job,
            spec_hash,
            payload: encode_result(result),
            model: trained.map(model_bytes),
        };
        for (message, sizes) in [
            (&dispatch, &mut self.dispatch_kb),
            (&done, &mut self.result_kb),
        ] {
            let mut frame = Vec::new();
            for _ in 0..WIRE_REPS {
                let t = Instant::now();
                frame = encode_frame(1, message);
                self.encode_us.push(us(t));
            }
            sizes.push(frame.len() as f64 / 1024.0);
            for rep in 0..WIRE_REPS {
                let t = Instant::now();
                let decoded = Message::decode_payload(message.frame_type(), &frame[HEADER_LEN..]);
                self.decode_us.push(us(t));
                if rep == 0 && !matches!(&decoded, Ok(m) if m == message) {
                    return Err(format!("wire round trip changed job {job}'s message"));
                }
            }
        }
        Ok(())
    }
}
