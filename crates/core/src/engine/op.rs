//! The outer-product (OP) engine.
//!
//! OP (paper Fig. 1b, OuterSPACE-style) streams the sparse operand column by
//! column. The dense row matching the column index is loaded **once** into
//! the PE stationary buffers; every non-zero in the column then scatters one
//! partial output row. Partial outputs are the dataflow's Achilles heel:
//! they are read-modified-written repeatedly, so this engine supports the
//! three merge policies of [`MergePolicy`] — HyMM's near-memory accumulator,
//! the conventional PE read-modify-write, and the materialise-then-merge
//! scheme of traditional outer-product designs (the "without accumulator"
//! series of the paper's Fig. 10).
//!
//! Output rows are processed in tiles sized so the tile's outputs fit in the
//! unified buffer (GCNAX-style loop tiling; for HyMM's region 1 the tiling
//! threshold guarantees a single tile). The dense input is re-streamed once
//! per tile — the read-amplification/footprint trade-off the paper discusses
//! in §IV-E.

use crate::config::MergePolicy;
use crate::engine::{row_line, NumericSink};
use crate::machine::Machine;
use hymm_mem::dram::AccessPattern;
use hymm_mem::smq::{SmqStream, SparseFormat};
use hymm_mem::MatrixKind;
use hymm_sparse::{Csc, Dense};

/// Reserved line-index base for materialised partial-product log entries,
/// far above any real output row.
const MATERIALIZE_LOG_BASE: u64 = 1 << 40;

/// One OP invocation.
#[derive(Debug)]
pub struct OpJob<'a> {
    /// Sparse operand in local coordinates (`rows x cols`).
    pub sparse: &'a Csc,
    /// Traffic tag of the sparse operand's streams.
    pub sparse_kind: MatrixKind,
    /// Dense operand; local sparse column `k` pairs with dense row
    /// `k + col_offset`.
    pub dense: &'a Dense,
    /// Traffic tag of dense-row loads.
    pub dense_kind: MatrixKind,
    /// Global offset added to local sparse columns when addressing `dense`.
    pub col_offset: usize,
    /// Global offset added to local sparse rows when addressing the output.
    pub out_row_offset: usize,
    /// Traffic tag of partial-output writes.
    pub out_kind: MatrixKind,
    /// How partial outputs are merged.
    pub merge: MergePolicy,
    /// Output-row tile size (local rows per pass).
    pub tile_rows: usize,
    /// Phase name recorded in the report.
    pub name: &'static str,
}

/// Runs the OP dataflow starting at cycle `start`, accumulating numeric
/// results into `out` (global coordinates); returns the end cycle.
///
/// # Panics
///
/// Panics if shapes are inconsistent or `tile_rows == 0`.
// `k` indexes both the cursor array and names the sparse column; the range
// loop reads better than enumerate here.
#[allow(clippy::needless_range_loop)]
pub fn run_op(m: &mut Machine, start: u64, job: &OpJob<'_>, out: &mut Dense) -> u64 {
    run_op_sink(m, start, job, NumericSink::Accumulate(out))
}

/// [`run_op`] writing into a [`NumericSink`]: timing-identical to the
/// accumulate mode, with the numeric axpy optionally elided (see the sink's
/// docs for when that is legal).
#[allow(clippy::needless_range_loop)]
pub fn run_op_sink(m: &mut Machine, start: u64, job: &OpJob<'_>, mut out: NumericSink<'_>) -> u64 {
    assert!(job.tile_rows > 0, "tile_rows must be positive");
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
    let line_bytes = (mem.line_bytes * out_lines) as u64;
    // Engine-level row packing (see rwp.rs): entries of one column share the
    // stationary dense row, so with the flexible VRF (lane gating) enabled
    // and the vector wider than the output row, `pack` of them co-issue as a
    // single packed operation. Without it `pack == 1` and the seed's
    // per-entry path runs bit-identically.
    let width = out.cols();
    let pack = if m.pe.gating() {
        (m.pe.lanes() / width.max(1)).max(1)
    } else {
        1
    };

    let sparse = job.sparse;
    let rows = sparse.rows();
    let cols = sparse.cols();
    let num_tiles = rows.div_ceil(job.tile_rows);
    let total_nnz = sparse.nnz() as u64;

    // Per-column consumption cursors: tiles ascend through each column's
    // (sorted) row indices exactly once.
    let mut cursor: Vec<usize> = (0..cols).map(|k| sparse.col_ptr()[k]).collect();

    // Scratch reused across tiles: first-touch bitmap and the merge-pass MLP
    // window.
    let mut touched_buf = vec![false; job.tile_rows.min(rows)];
    let mlp = m.config.mlp_window.max(1);
    let mut window: std::collections::VecDeque<u64> =
        std::collections::VecDeque::with_capacity(mlp);

    let mut now = start;
    let mut end = start;
    let mut materialize_serial: u64 = MATERIALIZE_LOG_BASE;

    for tile in 0..num_tiles {
        let lo = tile * job.tile_rows;
        let hi = ((tile + 1) * job.tile_rows).min(rows);
        // Count this tile's entries to size its SMQ stream (the tiled CSC
        // carries its own column-pointer array — the storage overhead of
        // §IV-E).
        let mut tile_nnz = 0usize;
        for k in 0..cols {
            let mut c = cursor[k];
            let end_ptr = sparse.col_ptr()[k + 1];
            while c < end_ptr && (sparse.row_idx()[c] as usize) < hi {
                c += 1;
            }
            tile_nnz += c - cursor[k];
        }
        if tile_nnz == 0 {
            continue;
        }
        let mut smq = SmqStream::new(&mem, job.sparse_kind, SparseFormat::Csc, tile_nnz, cols + 1);

        // Footprint accounting for this tile.
        let touched = &mut touched_buf[..hi - lo];
        touched.fill(false);
        let mut live_partial_bytes: u64 = 0;
        // Materialise log: this tile's partial products take the serial
        // line addresses `log_start..materialize_serial`.
        let log_start = materialize_serial;

        for k in 0..cols {
            let col_end = sparse.col_ptr()[k + 1];
            let begin = cursor[k];
            let mut idx = begin;
            while idx < col_end && (sparse.row_idx()[idx] as usize) < hi {
                idx += 1;
            }
            if idx == begin {
                continue;
            }
            cursor[k] = idx;

            // `smq-stream` hints: the column-pointer entries the SMQ has
            // already fetched name the next dense rows this tile will
            // demand. The scan is bounded so the hint walk stays cheap even
            // on wide, sparse tiles.
            if m.wants_prefetch_hints() {
                let mut hinted = 0usize;
                for nk in k + 1..cols.min(k + 33) {
                    if hinted >= m.config.mem.prefetch_degree {
                        break;
                    }
                    let b = cursor[nk];
                    if b < sparse.col_ptr()[nk + 1] && (sparse.row_idx()[b] as usize) < hi {
                        let ng = nk + job.col_offset;
                        for chunk in 0..dense_lines {
                            m.push_prefetch_hint(row_line(job.dense_kind, ng, dense_lines, chunk));
                        }
                        hinted += 1;
                    }
                }
            }

            // Load the dense row into the PE stationary buffers (once per
            // column per tile).
            let g = k + job.col_offset;
            let mut dense_ready = now;
            for chunk in 0..dense_lines {
                let addr = row_line(job.dense_kind, g, dense_lines, chunk);
                dense_ready = dense_ready.max(m.load_line(now, addr, AccessPattern::Sequential));
            }

            let mut group = begin;
            while group < idx {
                let group_end = (group + pack).min(idx);
                // Decode every entry of the group before the single issue:
                // all packed operands must be ready when the slot fires.
                let mut ready = now;
                for _ in group..group_end {
                    let entry = smq
                        .next_entry(now, &mut m.dram)
                        .expect("stream sized to the tile nnz");
                    now = now.max(entry) + 1;
                    ready = ready.max(now);
                }
                ready = ready.max(dense_ready);
                let mult_done = if pack == 1 {
                    m.pe.execute_row_mac(ready, width)
                } else {
                    m.pe.execute_packed_mac(ready, (group_end - group) as u64, width)
                };
                for e in group..group_end {
                    let r_local = sparse.row_idx()[e] as usize;
                    let v = sparse.values()[e];
                    out.axpy_row(r_local + job.out_row_offset, v, job.dense.row(g));

                    let tile_r = r_local - lo;
                    let first_touch = !touched[tile_r];
                    touched[tile_r] = true;
                    m.partials.writes += out_lines as u64;

                    let global_row = r_local + job.out_row_offset;
                    match job.merge {
                        MergePolicy::NearMemory => {
                            let mut done = mult_done;
                            for chunk in 0..out_lines {
                                let addr = row_line(job.out_kind, global_row, out_lines, chunk);
                                let drained = m.lsq.store(done, addr, done);
                                // The store does not touch the DMB, so the write's
                                // hit flag equals residency before this iteration.
                                let w = m.dmb.write(
                                    drained,
                                    addr,
                                    &mut m.dram,
                                    true,
                                    AccessPattern::Random,
                                );
                                done = w.ready;
                                if !first_touch {
                                    if w.hit {
                                        m.dmb.record_accumulator_merge();
                                    } else {
                                        // Partial spilled earlier: merge through
                                        // DRAM (read old value back).
                                        m.partials.dram_merges += 1;
                                        let rb = m.dram.read(
                                            done,
                                            job.out_kind,
                                            mem.line_bytes as u64,
                                            AccessPattern::Random,
                                        );
                                        done = done.max(rb);
                                        m.dmb.record_accumulator_merge();
                                    }
                                }
                            }
                            end = end.max(done);
                            if first_touch {
                                live_partial_bytes += line_bytes;
                            }
                        }
                        MergePolicy::PeReadModifyWrite => {
                            let mut done = mult_done;
                            for chunk in 0..out_lines {
                                let addr = row_line(job.out_kind, global_row, out_lines, chunk);
                                if first_touch {
                                    let drained = m.lsq.store(done, addr, done);
                                    let w = m.dmb.write(
                                        drained,
                                        addr,
                                        &mut m.dram,
                                        true,
                                        AccessPattern::Random,
                                    );
                                    done = w.ready;
                                } else {
                                    // Read-modify-write through the PE adder; the
                                    // LSQ forwards from a still-queued partial
                                    // store to the same address (paper §IV-B).
                                    let (ready, resident) =
                                        m.load_line_resident(done, addr, AccessPattern::Random);
                                    if !resident {
                                        m.partials.dram_merges += 1;
                                    }
                                    let add = m.pe.execute_merge(ready, 1);
                                    let drained = m.lsq.store(add, addr, add);
                                    let w = m.dmb.write(
                                        drained,
                                        addr,
                                        &mut m.dram,
                                        true,
                                        AccessPattern::Random,
                                    );
                                    done = w.ready;
                                }
                            }
                            end = end.max(done);
                            if first_touch {
                                live_partial_bytes += line_bytes;
                            }
                        }
                        MergePolicy::Materialize => {
                            // Every partial product occupies fresh log space;
                            // the DMB spills overflow to DRAM by itself.
                            let mut done = mult_done;
                            for _ in 0..out_lines {
                                let addr =
                                    hymm_mem::LineAddr::new(job.out_kind, materialize_serial);
                                materialize_serial += 1;
                                let drained = m.lsq.store(done, addr, done);
                                let w = m.dmb.write(
                                    drained,
                                    addr,
                                    &mut m.dram,
                                    true,
                                    AccessPattern::Random,
                                );
                                done = w.ready;
                            }
                            end = end.max(done);
                            live_partial_bytes += line_bytes;
                        }
                    }
                    m.partials.peak_bytes = m.partials.peak_bytes.max(live_partial_bytes);
                }
                group = group_end;
            }
        }

        // Tile epilogue.
        if job.merge == MergePolicy::Materialize {
            // Merge pass: fold every logged partial into its output row.
            // Reads are pipelined up to the MLP window — the merger streams
            // the log while the PE adder drains it.
            let mut t = end;
            for log_index in log_start..materialize_serial {
                if window.len() >= mlp {
                    let oldest = window.pop_front().expect("window non-empty");
                    t = t.max(oldest);
                }
                let addr = hymm_mem::LineAddr::new(job.out_kind, log_index);
                let (ready, resident) = m.load_line_resident(t, addr, AccessPattern::Random);
                if !resident {
                    m.partials.dram_merges += 1;
                }
                let merged = m.pe.execute_merge(ready, 1);
                window.push_back(merged);
                t += 1;
            }
            let mut t = window.back().copied().unwrap_or(t).max(t);
            window.clear();
            // Drop the log and write the merged rows.
            m.dmb.invalidate_kind(job.out_kind);
            let merged_lines = touched.iter().filter(|&&hit| hit).count() * out_lines;
            for _ in 0..merged_lines {
                t = t.max(m.dram.write(
                    t,
                    job.out_kind,
                    mem.line_bytes as u64,
                    AccessPattern::Sequential,
                ));
            }
            end = end.max(t);
        } else {
            // Flush the finished tile's output rows so the next tile has the
            // buffer to itself.
            end = end.max(m.dmb.flush_kind(end, job.out_kind, &mut m.dram));
        }
        m.absorb_smq(&mut smq);
        end = end.max(now);
    }
    end = end.max(now);
    m.record_phase(job.name, start, end, total_nnz);
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

    fn fixture() -> (Csc, Dense) {
        let coo = Coo::from_triplets(
            4,
            5,
            [
                (0, 1, 2.0),
                (0, 4, 1.0),
                (1, 0, -1.0),
                (3, 2, 0.5),
                (3, 1, 3.0),
                (2, 1, 1.0),
            ],
        )
        .unwrap();
        (
            Csc::from_coo(&coo),
            Dense::from_fn(5, 16, |r, c| (r * 16 + c) as f32 * 0.1),
        )
    }

    fn job<'a>(sparse: &'a Csc, dense: &'a Dense, merge: MergePolicy) -> OpJob<'a> {
        OpJob {
            sparse,
            sparse_kind: MatrixKind::SparseA,
            dense,
            dense_kind: MatrixKind::Combination,
            col_offset: 0,
            out_row_offset: 0,
            out_kind: MatrixKind::Output,
            merge,
            tile_rows: 4,
            name: "test/op",
        }
    }

    #[test]
    fn numeric_result_matches_reference_all_policies() {
        let (sparse, dense) = fixture();
        let want = spdemm::outer_product(&sparse, &dense);
        for merge in [
            MergePolicy::NearMemory,
            MergePolicy::PeReadModifyWrite,
            MergePolicy::Materialize,
        ] {
            let mut m = machine();
            let mut out = Dense::zeros(4, 16);
            run_op(&mut m, 0, &job(&sparse, &dense, merge), &mut out);
            assert!(out.approx_eq(&want, 1e-5), "policy {merge:?} wrong result");
        }
    }

    #[test]
    fn tiling_preserves_result() {
        let (sparse, dense) = fixture();
        let want = spdemm::outer_product(&sparse, &dense);
        let mut m = machine();
        let mut out = Dense::zeros(4, 16);
        let mut j = job(&sparse, &dense, MergePolicy::NearMemory);
        j.tile_rows = 2; // force two tiles
        run_op(&mut m, 0, &j, &mut out);
        assert!(out.approx_eq(&want, 1e-5));
    }

    #[test]
    fn near_memory_merges_do_not_use_pe() {
        let (sparse, dense) = fixture();
        let mut m = machine();
        let mut out = Dense::zeros(4, 16);
        run_op(
            &mut m,
            0,
            &job(&sparse, &dense, MergePolicy::NearMemory),
            &mut out,
        );
        assert_eq!(m.pe.merge_cycles(), 0);
        // rows 0 and 3 each receive 2 partials → 2 merges
        assert_eq!(m.dmb.accumulator_merges(), 2);
    }

    #[test]
    fn pe_rmw_charges_merge_cycles() {
        let (sparse, dense) = fixture();
        let mut m = machine();
        let mut out = Dense::zeros(4, 16);
        run_op(
            &mut m,
            0,
            &job(&sparse, &dense, MergePolicy::PeReadModifyWrite),
            &mut out,
        );
        assert_eq!(m.pe.merge_cycles(), 2);
        assert_eq!(m.dmb.accumulator_merges(), 0);
    }

    #[test]
    fn materialize_has_larger_footprint() {
        let (sparse, dense) = fixture();
        let mut acc = machine();
        let mut out = Dense::zeros(4, 16);
        run_op(
            &mut acc,
            0,
            &job(&sparse, &dense, MergePolicy::NearMemory),
            &mut out,
        );

        let mut mat = machine();
        let mut out2 = Dense::zeros(4, 16);
        run_op(
            &mut mat,
            0,
            &job(&sparse, &dense, MergePolicy::Materialize),
            &mut out2,
        );

        // 6 partial writes vs 4 distinct rows
        assert_eq!(mat.partials.peak_bytes, 6 * 64);
        assert_eq!(acc.partials.peak_bytes, 4 * 64);
        assert!(mat.partials.peak_bytes > acc.partials.peak_bytes);
    }

    #[test]
    fn outputs_flushed_after_tiles() {
        let (sparse, dense) = fixture();
        let mut m = machine();
        let mut out = Dense::zeros(4, 16);
        run_op(
            &mut m,
            0,
            &job(&sparse, &dense, MergePolicy::NearMemory),
            &mut out,
        );
        assert_eq!(m.dmb.resident_lines(MatrixKind::Output), 0);
        // 4 distinct output rows written back
        assert_eq!(m.dram.stats().kind(MatrixKind::Output).writes, 4);
    }

    #[test]
    fn offsets_map_to_global_coordinates() {
        let coo = Coo::from_triplets(1, 1, [(0, 0, 2.0)]).unwrap();
        let sparse = Csc::from_coo(&coo);
        let dense = Dense::from_fn(4, 16, |r, _| r as f32);
        let mut m = machine();
        let mut out = Dense::zeros(3, 16);
        let mut j = job(&sparse, &dense, MergePolicy::NearMemory);
        j.col_offset = 3;
        j.out_row_offset = 2;
        run_op(&mut m, 0, &j, &mut out);
        assert_eq!(out.get(2, 0), 6.0);
    }

    #[test]
    fn empty_sparse_is_noop() {
        let coo = Coo::new(3, 3).unwrap();
        let sparse = Csc::from_coo(&coo);
        let dense = Dense::zeros(3, 16);
        let mut m = machine();
        let mut out = Dense::zeros(3, 16);
        let end = run_op(
            &mut m,
            7,
            &job(&sparse, &dense, MergePolicy::NearMemory),
            &mut out,
        );
        assert_eq!(end, 7);
    }

    #[test]
    fn phase_records_nnz() {
        let (sparse, dense) = fixture();
        let mut m = machine();
        let mut out = Dense::zeros(4, 16);
        run_op(
            &mut m,
            0,
            &job(&sparse, &dense, MergePolicy::NearMemory),
            &mut out,
        );
        assert_eq!(m.phases[0].nnz, 6);
    }
}
