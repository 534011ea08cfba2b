//! The row-wise product (RWP) engine.
//!
//! RWP (paper Fig. 1a, Gustavson's algorithm) streams the sparse operand row
//! by row. For every non-zero `(r, c, v)` it loads dense row `c`, multiplies
//! it by the broadcast scalar `v` on the PE array, and accumulates into the
//! **output-stationary** row `r` held in the PE stationary buffers; when the
//! sparse row ends the finished output row is stored. Dense-input locality
//! (repeated columns within a window) is the reuse this dataflow exploits;
//! finished output rows are never re-read, so they are streamed out without
//! polluting the unified buffer.

use crate::engine::{row_line, NumericSink};
use crate::machine::Machine;
use hymm_mem::dram::AccessPattern;
use hymm_mem::smq::{SmqStream, SparseFormat};
use hymm_mem::MatrixKind;
use hymm_sparse::{Csr, Dense};
use std::collections::VecDeque;

/// One RWP invocation.
#[derive(Debug)]
pub struct RwpJob<'a> {
    /// Sparse operand in local coordinates (`rows x cols`).
    pub sparse: &'a Csr,
    /// Traffic tag of the sparse operand's streams.
    pub sparse_kind: MatrixKind,
    /// Dense operand; local sparse column `c` multiplies dense row
    /// `c + col_offset`.
    pub dense: &'a Dense,
    /// Traffic tag of dense-row loads.
    pub dense_kind: MatrixKind,
    /// Global offset added to local sparse columns when addressing `dense`.
    pub col_offset: usize,
    /// Global offset added to local sparse rows when addressing the output.
    pub out_row_offset: usize,
    /// Traffic tag of output-row stores.
    pub out_kind: MatrixKind,
    /// Write-allocate outputs in the DMB (`true` for `XW`, which the
    /// aggregation phase re-reads) or stream them through (`false` for
    /// finished `AXW` rows).
    pub out_allocate: bool,
    /// Phase name recorded in the report.
    pub name: &'static str,
}

/// Runs the RWP dataflow starting at cycle `start`, accumulating numeric
/// results into `out` (global coordinates); returns the end cycle.
///
/// # Panics
///
/// Panics if shapes are inconsistent (sparse columns + offset exceeding
/// dense rows, output too small, or differing widths).
pub fn run_rwp(m: &mut Machine, start: u64, job: &RwpJob<'_>, out: &mut Dense) -> u64 {
    run_rwp_sink(m, start, job, NumericSink::Accumulate(out))
}

/// [`run_rwp`] writing into a [`NumericSink`]: timing-identical to the
/// accumulate mode, with the numeric axpy optionally elided (see the sink's
/// docs for when that is legal).
pub fn run_rwp_sink(
    m: &mut Machine,
    start: u64,
    job: &RwpJob<'_>,
    mut out: NumericSink<'_>,
) -> u64 {
    assert!(
        job.sparse.cols() + job.col_offset <= job.dense.rows(),
        "sparse columns exceed dense rows"
    );
    assert!(
        job.sparse.rows() + job.out_row_offset <= out.rows(),
        "sparse rows exceed output rows"
    );
    assert_eq!(
        job.dense.cols(),
        out.cols(),
        "dense and output widths differ"
    );

    let mem = m.config.mem;
    let dense_lines = mem.lines_per_row(job.dense.cols());
    let out_lines = mem.lines_per_row(out.cols());
    let mlp = m.config.mlp_window.max(1);

    let mut smq = SmqStream::new(
        &mem,
        job.sparse_kind,
        SparseFormat::Csr,
        job.sparse.nnz(),
        job.sparse.rows() + 1,
    );

    let mut issue = start;
    let mut end = start;
    let mut window: VecDeque<u64> = VecDeque::with_capacity(mlp);

    // Engine-level row packing: with the flexible VRF (lane gating) enabled
    // and the vector wider than the output row, `pack` consecutive non-zeros
    // of the same sparse row co-issue as one packed operation (each scaling
    // its own copy of the row slot). Without the flexible VRF operands
    // cannot share a slot, so `pack == 1` and the loop below is the seed's
    // per-entry path, bit-identically.
    let width = out.cols();
    let pack = if m.pe.gating() {
        (m.pe.lanes() / width.max(1)).max(1) as u64
    } else {
        1
    };

    for r in 0..job.sparse.rows() {
        let (cols, vals) = job.sparse.row(r);
        if cols.is_empty() {
            continue;
        }
        let mut row_done = issue;
        let mut batch_ready = 0u64;
        let mut batch_rows = 0u64;
        for (i, (&c, &v)) in cols.iter().zip(vals).enumerate() {
            let entry = smq
                .next_entry(issue, &mut m.dram)
                .expect("stream sized to the sparse nnz");
            issue = issue.max(entry) + 1;
            // Bound memory-level parallelism by the configured window.
            if window.len() >= mlp {
                let oldest = window.pop_front().expect("window non-empty");
                issue = issue.max(oldest);
            }
            // `smq-stream` hints: the SMQ fetched this row's index entries
            // ahead of consumption, so the entry one prefetch-degree down
            // the row names a dense row demand will want shortly.
            if m.wants_prefetch_hints() {
                if let Some(&nc) = cols.get(i + m.config.mem.prefetch_degree.max(1)) {
                    let ng = nc as usize + job.col_offset;
                    for chunk in 0..dense_lines {
                        m.push_prefetch_hint(row_line(job.dense_kind, ng, dense_lines, chunk));
                    }
                }
            }
            let g = c as usize + job.col_offset;
            let mut ready = issue;
            for chunk in 0..dense_lines {
                let addr = row_line(job.dense_kind, g, dense_lines, chunk);
                ready = ready.max(m.load_line(issue, addr, AccessPattern::Random));
            }
            out.axpy_row(r + job.out_row_offset, v, job.dense.row(g));
            if pack == 1 {
                let done = m.pe.execute_row_mac(ready, width);
                window.push_back(done);
                row_done = done;
            } else {
                // Decode/load per entry, issue per batch: all operands of a
                // packed group must be ready before the single slot fires.
                batch_ready = batch_ready.max(ready);
                batch_rows += 1;
                if batch_rows == pack {
                    let done = m.pe.execute_packed_mac(batch_ready, batch_rows, width);
                    for _ in 0..batch_rows {
                        window.push_back(done);
                    }
                    row_done = done;
                    batch_rows = 0;
                    batch_ready = 0;
                }
            }
        }
        if batch_rows > 0 {
            let done = m.pe.execute_packed_mac(batch_ready, batch_rows, width);
            for _ in 0..batch_rows {
                window.push_back(done);
            }
            row_done = done;
        }
        // Store the finished output row.
        let global_row = r + job.out_row_offset;
        for chunk in 0..out_lines {
            let addr = row_line(job.out_kind, global_row, out_lines, chunk);
            end =
                end.max(m.store_line(row_done, addr, job.out_allocate, AccessPattern::Sequential));
        }
        end = end.max(row_done);
    }
    end = end.max(issue);
    m.absorb_smq(&mut smq);
    m.record_phase(job.name, start, end, job.sparse.nnz() as u64);
    end
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AcceleratorConfig;
    use hymm_sparse::spdemm;
    use hymm_sparse::Coo;

    fn machine() -> Machine {
        Machine::new(&AcceleratorConfig::default())
    }

    fn fixture() -> (Csr, Dense) {
        let coo = Coo::from_triplets(
            4,
            5,
            [
                (0, 1, 2.0),
                (0, 4, 1.0),
                (1, 0, -1.0),
                (3, 2, 0.5),
                (3, 3, 3.0),
            ],
        )
        .unwrap();
        (
            Csr::from_coo(&coo),
            Dense::from_fn(5, 16, |r, c| (r * 16 + c) as f32 * 0.1),
        )
    }

    fn job<'a>(sparse: &'a Csr, dense: &'a Dense) -> RwpJob<'a> {
        RwpJob {
            sparse,
            sparse_kind: MatrixKind::SparseA,
            dense,
            dense_kind: MatrixKind::Combination,
            col_offset: 0,
            out_row_offset: 0,
            out_kind: MatrixKind::Output,
            out_allocate: false,
            name: "test/rwp",
        }
    }

    #[test]
    fn numeric_result_matches_reference() {
        let (sparse, dense) = fixture();
        let mut m = machine();
        let mut out = Dense::zeros(4, 16);
        run_rwp(&mut m, 0, &job(&sparse, &dense), &mut out);
        let want = spdemm::row_wise_product(&sparse, &dense);
        assert!(out.approx_eq(&want, 1e-5));
    }

    #[test]
    fn cycles_advance_and_phase_recorded() {
        let (sparse, dense) = fixture();
        let mut m = machine();
        let mut out = Dense::zeros(4, 16);
        let end = run_rwp(&mut m, 10, &job(&sparse, &dense), &mut out);
        assert!(end > 10);
        assert_eq!(m.phases.len(), 1);
        assert_eq!(m.phases[0].nnz, 5);
        assert!(m.phases[0].end_cycle >= m.phases[0].start_cycle);
    }

    #[test]
    fn dense_reuse_hits_in_buffer() {
        // Two rows referencing the same dense column: second load must hit.
        let coo = Coo::from_triplets(2, 2, [(0, 0, 1.0), (1, 0, 1.0)]).unwrap();
        let sparse = Csr::from_coo(&coo);
        let dense = Dense::from_fn(2, 16, |_, _| 1.0);
        let mut m = machine();
        let mut out = Dense::zeros(2, 16);
        run_rwp(&mut m, 0, &job(&sparse, &dense), &mut out);
        let hits = m.dmb.hit_stats();
        assert_eq!(hits.read_hits, 1, "second access to dense row 0 should hit");
        assert_eq!(hits.read_misses, 1);
    }

    #[test]
    fn streams_outputs_without_allocating() {
        let (sparse, dense) = fixture();
        let mut m = machine();
        let mut out = Dense::zeros(4, 16);
        run_rwp(&mut m, 0, &job(&sparse, &dense), &mut out);
        assert_eq!(m.dmb.resident_lines(MatrixKind::Output), 0);
        // 3 non-empty sparse rows → 3 output lines written to DRAM
        assert_eq!(m.dram.stats().kind(MatrixKind::Output).writes, 3);
    }

    #[test]
    fn allocating_outputs_keeps_them_resident() {
        let (sparse, dense) = fixture();
        let mut m = machine();
        let mut out = Dense::zeros(4, 16);
        let mut j = job(&sparse, &dense);
        j.dense_kind = MatrixKind::Weight;
        j.out_allocate = true;
        j.out_kind = MatrixKind::Combination;
        run_rwp(&mut m, 0, &j, &mut out);
        // 3 non-empty sparse rows → 3 XW lines write-allocated and retained
        assert_eq!(m.dmb.resident_lines(MatrixKind::Combination), 3);
        assert_eq!(m.dram.stats().kind(MatrixKind::Combination).writes, 0);
    }

    #[test]
    fn sparse_traffic_is_charged() {
        let (sparse, dense) = fixture();
        let mut m = machine();
        let mut out = Dense::zeros(4, 16);
        run_rwp(&mut m, 0, &job(&sparse, &dense), &mut out);
        assert!(m.dram.stats().kind(MatrixKind::SparseA).read_bytes >= 128);
    }

    #[test]
    fn offsets_map_to_global_coordinates() {
        // local 1x1 sparse with offset: entry multiplies dense row 3 into out row 2.
        let coo = Coo::from_triplets(1, 1, [(0, 0, 2.0)]).unwrap();
        let sparse = Csr::from_coo(&coo);
        let dense = Dense::from_fn(4, 16, |r, _| r as f32);
        let mut m = machine();
        let mut out = Dense::zeros(3, 16);
        let j = RwpJob {
            col_offset: 3,
            out_row_offset: 2,
            ..job(&sparse, &dense)
        };
        run_rwp(&mut m, 0, &j, &mut out);
        assert_eq!(out.get(2, 0), 6.0);
        assert_eq!(out.get(0, 0), 0.0);
    }

    #[test]
    fn empty_sparse_is_noop() {
        let coo = Coo::new(3, 3).unwrap();
        let sparse = Csr::from_coo(&coo);
        let dense = Dense::zeros(3, 16);
        let mut m = machine();
        let mut out = Dense::zeros(3, 16);
        let end = run_rwp(&mut m, 5, &job(&sparse, &dense), &mut out);
        assert_eq!(end, 5);
        assert_eq!(out.as_slice().iter().copied().sum::<f32>(), 0.0);
    }
}
