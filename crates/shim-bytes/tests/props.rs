//! Property tests of buffer recycling: random builder, freeze, clone,
//! slice, copy, drop and pool-reset sequences against a plain byte model.

use bytes::{pool, BufMut, Bytes, BytesMut};
use proptest::prelude::*;

/// The address range a buffer or view occupies (empty for no bytes).
fn span(ptr: *const u8, len: usize) -> std::ops::Range<usize> {
    let start = ptr as usize;
    start..start + len
}

fn overlaps(a: &std::ops::Range<usize>, b: &std::ops::Range<usize>) -> bool {
    !a.is_empty() && !b.is_empty() && a.start < b.end && b.start < a.end
}

/// Live builders and views, each with the bytes it must read.
#[derive(Default)]
struct World {
    builders: Vec<(BytesMut, Vec<u8>)>,
    views: Vec<(Bytes, Vec<u8>)>,
}

impl World {
    /// Address ranges of everything still alive: a builder's whole
    /// capacity (it may still grow into it) and each view's bytes.
    fn live(&self) -> Vec<std::ops::Range<usize>> {
        let builders = self
            .builders
            .iter()
            .map(|(m, _)| span(m.as_ptr(), m.capacity()));
        let views = self.views.iter().map(|(b, _)| span(b.as_ptr(), b.len()));
        builders.chain(views).collect()
    }

    /// A fresh buffer must not reuse memory any live view or builder
    /// still reads.
    fn assert_fresh(&self, fresh: &std::ops::Range<usize>) {
        for live in self.live() {
            assert!(
                !overlaps(fresh, &live),
                "fresh buffer {fresh:?} overlaps live {live:?}"
            );
        }
    }

    fn assert_models(&self) {
        for (m, model) in &self.builders {
            assert_eq!(&m[..], &model[..]);
        }
        for (b, model) in &self.views {
            assert_eq!(&b[..], &model[..]);
        }
    }
}

/// Append a value chosen by `kind` with the matching `put_*` writer.
fn put(m: &mut BytesMut, model: &mut Vec<u8>, kind: u64, v: u64) {
    match kind % 5 {
        0 => {
            m.put_u8(v as u8);
            model.push(v as u8);
        }
        1 => {
            m.put_u16(v as u16);
            model.extend_from_slice(&(v as u16).to_be_bytes());
        }
        2 => {
            m.put_u32(v as u32);
            model.extend_from_slice(&(v as u32).to_be_bytes());
        }
        3 => {
            m.put_u64(v);
            model.extend_from_slice(&v.to_be_bytes());
        }
        _ => {
            // A run long enough to outgrow small classes now and then.
            let run: Vec<u8> = (0..(v % 300) as u8).map(|i| i ^ v as u8).collect();
            m.put_slice(&run);
            model.extend_from_slice(&run);
        }
    }
}

proptest! {
    /// Every live view keeps reading its model bytes, and no buffer is
    /// handed out again while any view or builder of it lives.
    #[test]
    fn recycling_never_reuses_live_buffers(
        ops in proptest::collection::vec((0u8..16, any::<u64>(), any::<u64>()), 1..200)
    ) {
        pool::reset();
        let mut w = World::default();
        for &(op, a, b) in &ops {
            let nb = w.builders.len().max(1);
            let nv = w.views.len().max(1);
            match op {
                0 | 1 => {
                    let m = BytesMut::with_capacity((a % 2000) as usize);
                    w.assert_fresh(&span(m.as_ptr(), m.capacity()));
                    w.builders.push((m, Vec::new()));
                }
                2..=5 if !w.builders.is_empty() => {
                    let (m, model) = &mut w.builders[a as usize % nb];
                    put(m, model, b, b.rotate_left(17));
                }
                6 | 7 if !w.builders.is_empty() => {
                    let (m, model) = w.builders.swap_remove(a as usize % nb);
                    let ptr = m.as_ptr();
                    let frozen = m.freeze();
                    prop_assert!(frozen.is_empty() || frozen.as_ptr() == ptr, "freeze copied");
                    w.views.push((frozen, model));
                }
                8 if !w.views.is_empty() => {
                    let (v, model) = &w.views[a as usize % nv];
                    let pair = (v.clone(), model.clone());
                    w.views.push(pair);
                }
                9 if !w.views.is_empty() => {
                    let (v, model) = &w.views[a as usize % nv];
                    let len = model.len();
                    let start = (b as usize) % (len + 1);
                    let end = start + (b.rotate_left(32) as usize) % (len - start + 1);
                    let pair = (v.slice(start..end), model[start..end].to_vec());
                    w.views.push(pair);
                }
                10 => {
                    let data: Vec<u8> = (0..(a % 1500) as usize).map(|i| (i as u64 ^ b) as u8).collect();
                    let v = Bytes::copy_from_slice(&data);
                    w.assert_fresh(&span(v.as_ptr(), v.len()));
                    w.views.push((v, data));
                }
                11 | 12 if !w.views.is_empty() => {
                    w.views.swap_remove(a as usize % nv);
                }
                13 if !w.builders.is_empty() => {
                    w.builders.swap_remove(a as usize % nb);
                }
                14 => pool::reset(),
                _ => {}
            }
            w.assert_models();
        }
        pool::reset();
    }
}
