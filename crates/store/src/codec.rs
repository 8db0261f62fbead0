//! The binary layout of every persisted result type, declared once.
//!
//! The repository carries no serialization dependency, so each persisted
//! type states its layout here as an ordered field list (`persist_struct!`)
//! or an ordered, explicitly tagged variant list (`persist_enum!`). The
//! one [`Persist`] impl each list expands to both encodes and decodes, so a
//! writer and a reader can never disagree. Primitives and containers
//! (`Vec`, `Arc<[T]>`, `Option`, `BTreeMap`, tuples) have one generic impl
//! each.
//!
//! The format is little-endian: integers at their width, `usize` and
//! lengths as `u64`, `f64` as its bits, `bool` and `Option` as a 0/1 byte,
//! enums as a `u8` tag followed by the variant's fields, and sequences,
//! maps and strings as a length prefix followed by their elements. Any
//! layout change must bump [`crate::STORE_FORMAT_VERSION`], which rotates
//! the on-disk directory instead of attempting migration; the layout-pin
//! test holds the encodings of hand-built samples to a recorded digest.
//!
//! Every decode returns `Option`: a short buffer, an unknown tag, a length
//! prefix longer than the remaining bytes could hold, malformed UTF-8 or
//! trailing bytes yield `None`, which the store treats as a cache miss
//! (the entry is re-simulated and overwritten).

use std::collections::BTreeMap;
use std::sync::Arc;

use mondrian_core::{OperatorKind, PartitionSpec, PhaseOutcome, Report, StreamInfo, SystemKind};
use mondrian_energy::EnergyBreakdown;
use mondrian_noc::{MeshStats, SerDesStats};
use mondrian_ops::{Aggregates, OpOutput};
use mondrian_pipeline::{
    BranchSchedule, BuildSide, Concurrency, FusedEdge, PipelineReport, PlanReport,
    PlannedEdgeReport, PlannedLease, PlannedWaveReport, ScheduleReport, StageEntry, StageInput,
    StageOutcome, StageSpec, WaveReport,
};
use mondrian_sim::{Stat, Stats};
use mondrian_workloads::Tuple;

/// A type with one declared binary layout.
pub(crate) trait Persist: Sized {
    /// The fewest bytes any value encodes to: bounds a length prefix by
    /// the bytes left, so a corrupt length cannot reserve huge memory.
    const MIN_BYTES: usize;

    /// Appends the encoding of `self`.
    fn put(&self, out: &mut Vec<u8>);

    /// Reads one value; `None` on any malformed input.
    fn get(d: &mut Dec) -> Option<Self>;
}

/// Bounds-checked byte source for the decoders.
pub(crate) struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let bytes = self.buf.get(self.pos..self.pos.checked_add(n)?)?;
        self.pos += n;
        Some(bytes)
    }

    /// A length prefix of elements at least `min_bytes` long each, rejected
    /// when the remaining bytes cannot hold that many.
    fn len(&mut self, min_bytes: usize) -> Option<usize> {
        let n = <usize as Persist>::get(self)?;
        (n.checked_mul(min_bytes.max(1))? <= self.buf.len() - self.pos).then_some(n)
    }
}

/// Encodes one entry payload.
pub(crate) fn encode<T: Persist>(value: &T) -> Vec<u8> {
    let mut out = Vec::new();
    value.put(&mut out);
    out
}

/// Encodes a sequence payload with the layout of `Vec<T>`.
pub(crate) fn encode_seq<T: Persist>(items: &[T]) -> Vec<u8> {
    let mut out = Vec::new();
    put_seq(items, &mut out);
    out
}

/// Decodes one entry payload; `None` on any corruption, including
/// trailing bytes.
pub(crate) fn decode<T: Persist>(buf: &[u8]) -> Option<T> {
    let mut d = Dec { buf, pos: 0 };
    let value = T::get(&mut d)?;
    (d.pos == buf.len()).then_some(value)
}

macro_rules! persist_int {
    ($($t:ty),*) => {$(
        impl Persist for $t {
            const MIN_BYTES: usize = std::mem::size_of::<$t>();

            fn put(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }

            fn get(d: &mut Dec) -> Option<Self> {
                Some(<$t>::from_le_bytes(d.take(Self::MIN_BYTES)?.try_into().ok()?))
            }
        }
    )*};
}

persist_int!(u8, u32, u64, u128);

/// A primitive stored as another primitive: `$to` converts for
/// encoding, and `$from` converts back, rejecting values with `None`.
macro_rules! persist_via {
    ($t:ty as $raw:ty, $to:expr, $from:expr) => {
        impl Persist for $t {
            const MIN_BYTES: usize = <$raw as Persist>::MIN_BYTES;

            fn put(&self, out: &mut Vec<u8>) {
                $to(*self).put(out);
            }

            fn get(d: &mut Dec) -> Option<Self> {
                $from(<$raw as Persist>::get(d)?)
            }
        }
    };
}

persist_via!(usize as u64, |v: usize| v as u64, |v| usize::try_from(v).ok());
persist_via!(f64 as u64, f64::to_bits, |v| Some(f64::from_bits(v)));
persist_via!(bool as u8, u8::from, |v| match v {
    0 => Some(false),
    1 => Some(true),
    _ => None,
});

fn put_str(s: &str, out: &mut Vec<u8>) {
    s.len().put(out);
    out.extend_from_slice(s.as_bytes());
}

impl Persist for String {
    const MIN_BYTES: usize = 8;

    fn put(&self, out: &mut Vec<u8>) {
        put_str(self, out);
    }

    fn get(d: &mut Dec) -> Option<Self> {
        let len = d.len(1)?;
        String::from_utf8(d.take(len)?.to_vec()).ok()
    }
}

fn put_seq<T: Persist>(items: &[T], out: &mut Vec<u8>) {
    items.len().put(out);
    for item in items {
        item.put(out);
    }
}

impl<T: Persist> Persist for Vec<T> {
    const MIN_BYTES: usize = 8;

    fn put(&self, out: &mut Vec<u8>) {
        put_seq(self, out);
    }

    fn get(d: &mut Dec) -> Option<Self> {
        let n = d.len(T::MIN_BYTES)?;
        let mut items = Vec::with_capacity(n);
        for _ in 0..n {
            items.push(T::get(d)?);
        }
        Some(items)
    }
}

impl<T: Persist> Persist for Arc<[T]> {
    const MIN_BYTES: usize = 8;

    fn put(&self, out: &mut Vec<u8>) {
        put_seq(self, out);
    }

    fn get(d: &mut Dec) -> Option<Self> {
        Vec::<T>::get(d).map(Into::into)
    }
}

impl<T: Persist> Persist for Option<T> {
    const MIN_BYTES: usize = 1;

    fn put(&self, out: &mut Vec<u8>) {
        self.is_some().put(out);
        if let Some(v) = self {
            v.put(out);
        }
    }

    fn get(d: &mut Dec) -> Option<Self> {
        Some(if bool::get(d)? { Some(T::get(d)?) } else { None })
    }
}

impl<K: Persist + Ord, V: Persist> Persist for BTreeMap<K, V> {
    const MIN_BYTES: usize = 8;

    fn put(&self, out: &mut Vec<u8>) {
        self.len().put(out);
        for (k, v) in self {
            k.put(out);
            v.put(out);
        }
    }

    fn get(d: &mut Dec) -> Option<Self> {
        Vec::<(K, V)>::get(d).map(BTreeMap::from_iter)
    }
}

macro_rules! persist_tuple {
    ($($v:ident: $t:ident),*) => {
        impl<$($t: Persist),*> Persist for ($($t,)*) {
            const MIN_BYTES: usize = 0 $(+ $t::MIN_BYTES)*;

            fn put(&self, out: &mut Vec<u8>) {
                let ($($v,)*) = self;
                $($v.put(out);)*
            }

            fn get(d: &mut Dec) -> Option<Self> {
                Some(($($t::get(d)?,)*))
            }
        }
    };
}

persist_tuple!(a: A, b: B);
persist_tuple!(a: A, b: B, c: C);

/// Declares a struct's layout: its fields in encoding order. The list must
/// name every field, or the decoder's struct literal does not compile.
macro_rules! persist_struct {
    ($ty:ident { $($f:ident: $t:ty),* $(,)? }) => {
        impl Persist for $ty {
            const MIN_BYTES: usize = 0 $(+ <$t as Persist>::MIN_BYTES)*;

            fn put(&self, out: &mut Vec<u8>) {
                $(self.$f.put(out);)*
            }

            fn get(d: &mut Dec) -> Option<Self> {
                Some($ty { $($f: <$t as Persist>::get(d)?),* })
            }
        }
    };
}

const fn min_of(xs: &[usize]) -> usize {
    let (mut min, mut i) = (usize::MAX, 0);
    while i < xs.len() {
        if xs[i] < min {
            min = xs[i];
        }
        i += 1;
    }
    min
}

/// Declares an enum's layout: each variant's `u8` tag, then its fields in
/// encoding order — one named field for a tuple variant, `{ .. }` for a
/// struct variant. The match over the variants is exhaustive.
macro_rules! persist_enum {
    ($ty:ident {
        $($tag:literal => $v:ident $(($b:ident: $bt:ty))? $({ $($f:ident: $ft:ty),* })?),* $(,)?
    }) => {
        impl Persist for $ty {
            const MIN_BYTES: usize = 1 + min_of(&[
                $(0 $(+ <$bt as Persist>::MIN_BYTES)? $($(+ <$ft as Persist>::MIN_BYTES)*)?),*
            ]);

            fn put(&self, out: &mut Vec<u8>) {
                match self {
                    $($ty::$v $(($b))? $({ $($f),* })? => {
                        ($tag as u8).put(out);
                        $($b.put(out);)?
                        $($($f.put(out);)*)?
                    })*
                }
            }

            fn get(d: &mut Dec) -> Option<Self> {
                Some(match u8::get(d)? {
                    $($tag => $ty::$v
                        $((<$bt as Persist>::get(d)?))?
                        $({ $($f: <$ft as Persist>::get(d)?),* })?,)*
                    _ => return None,
                })
            }
        }
    };
}

persist_struct!(Tuple { key: u64, payload: u64 });

persist_enum!(SystemKind {
    0 => Cpu, 1 => Nmp, 2 => NmpPerm, 3 => NmpRand, 4 => NmpSeq, 5 => MondrianNoperm, 6 => Mondrian,
});

persist_enum!(OperatorKind {
    0 => Scan, 1 => Join, 2 => GroupBy, 3 => Sort, 4 => Union, 5 => Cogroup, 6 => FlatMap,
});

persist_enum!(Concurrency { 0 => Serial, 1 => Branch, 2 => Stream, 3 => Auto });

persist_enum!(StageInput { 0 => Prev, 1 => Source, 2 => Stage(stage: usize) });

persist_enum!(BuildSide { 0 => Dimension, 1 => Stage(stage: usize) });

persist_enum!(StageSpec {
    0 => Filter { modulus: u64, remainder: u64 },
    1 => LookupKey { key: u64 },
    2 => Map { key_mul: u64, key_add: u64 },
    3 => MapValues { mul: u64, add: u64 },
    4 => Union,
    5 => FlatMap { fanout: u64 },
    6 => Cogroup, 7 => GroupByKey, 8 => ReduceByKey, 9 => CountByKey, 10 => AggregateByKey,
    11 => SortByKey,
    12 => Join { build: BuildSide },
});

persist_struct!(PhaseOutcome {
    label: String, start: u64, end: u64, instructions: u64, simd_ops: u64,
    core_busy: Vec<f64>, overflows: u64, events: u64,
});

persist_struct!(EnergyBreakdown {
    cores_j: f64,
    llc_j: f64,
    dram_dynamic_j: f64,
    dram_static_j: f64,
    serdes_j: f64,
    noc_j: f64,
});

persist_enum!(Stat { 0 => Count(count: u64), 1 => Value(value: f64) });

/// A registry encodes as its sorted `(name, stat)` entries.
impl Persist for Stats {
    const MIN_BYTES: usize = 8;

    fn put(&self, out: &mut Vec<u8>) {
        self.len().put(out);
        for (name, stat) in self.iter() {
            put_str(name, out);
            stat.put(out);
        }
    }

    fn get(d: &mut Dec) -> Option<Self> {
        let mut stats = Stats::new();
        for (name, stat) in Vec::<(String, Stat)>::get(d)? {
            stats.set(&name, stat);
        }
        Some(stats)
    }
}

persist_struct!(MeshStats { messages: u64, hops: u64, bit_mm: f64, busy_time: u64 });

persist_struct!(SerDesStats { packets: u64, busy_bits: u64, busy_time: u64 });

persist_struct!(PartitionSpec { index: u32, first_vault: u32, vaults: u32, total_vaults: u32 });

persist_struct!(Aggregates { count: u64, sum: u64, sum_sq: u128, min: u64, max: u64 });

persist_enum!(OpOutput {
    0 => Tuples(tuples: Vec<Tuple>),
    1 => Expanded { tuples: Vec<Tuple>, fanout: u64 },
    2 => Groups(groups: BTreeMap<u64, Aggregates>),
    3 => CoGroups(groups: BTreeMap<u64, (Aggregates, Aggregates)>),
    4 => Rows(rows: Vec<(u64, u64, u64)>),
});

persist_struct!(StreamInfo { chunks: usize, chunk_partition_ps: Vec<u64> });

persist_struct!(Report {
    op: OperatorKind, system: SystemKind, phases: Vec<PhaseOutcome>,
    runtime_ps: u64, instructions: u64, energy: EnergyBreakdown, stats: Stats,
    verified: bool, shuffle_retries: u32, summary: String, output: OpOutput,
    partition: PartitionSpec, mesh_totals: MeshStats, serdes_totals: SerDesStats,
    stream: Option<StreamInfo>,
});

persist_struct!(StageOutcome {
    spec: StageSpec, inputs: Vec<StageInput>, wave: usize, branch: usize,
    concurrent: bool, streamed: bool, serial_runtime_ps: u64, matches_serial: bool,
    output_digest: u64, input_rows: usize, output_rows: usize, reference_ok: bool,
    report: Report,
});

persist_struct!(BranchSchedule {
    branch: usize, stages: Vec<usize>, first_vault: u32, vaults: u32,
    runtime_ps: u64, critical: bool, mesh: MeshStats,
});

persist_struct!(WaveReport {
    wave: usize, concurrent: bool, runtime_ps: u64, serial_runtime_ps: u64,
    branches: Vec<BranchSchedule>, serdes: SerDesStats,
});

persist_struct!(FusedEdge {
    producer: usize,
    consumer: usize,
    chunks: usize,
    streamed: bool,
    streamed_ps: u64,
    unfused_ps: u64,
});

persist_struct!(PlannedLease { branch: usize, first_vault: u32, vaults: u32 });

persist_struct!(PlannedWaveReport { wave: usize, leases: Vec<PlannedLease> });

persist_struct!(PlannedEdgeReport { producer: usize, consumer: usize, chunks: usize });

persist_struct!(PlanReport {
    stage_predicted_ps: Vec<u64>, predicted_makespan_ps: u64, planner_won: bool,
    waves: Vec<PlannedWaveReport>, edges: Vec<PlannedEdgeReport>,
});

persist_struct!(ScheduleReport {
    mode: Concurrency, waves: Vec<WaveReport>, fused: Vec<FusedEdge>, makespan_ps: u64,
});

persist_struct!(PipelineReport {
    system: SystemKind, source_rows: usize, stages: Vec<StageOutcome>,
    schedule: ScheduleReport, planned: Option<PlanReport>, output: Vec<Tuple>,
});

persist_struct!(StageEntry {
    input_rows: usize, reference_ok: bool, report: Report, projected: Arc<[Tuple]>,
});

#[cfg(test)]
mod tests;
