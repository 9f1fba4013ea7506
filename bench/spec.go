package main

// The benchmark's contract in one place: workloads, end-to-end metrics
// with their bounds, per-layer metrics with the layer they belong to.
// BENCHMARK.json at the repository root is this table in the driver's
// schema (a test keeps the two equal), and README.md is its prose form.

import (
	"slices"
	"strings"
)

// Workload names.
const (
	wlCodecStream = "codec_stream"
	wlTrainPlain  = "train_plain"
	wlOffloadDMA  = "train_offload_dma"
	wlOffloadNet  = "train_offload_net"
	wlDP2Net      = "train_dp2_net"
	wlStoreMixed  = "store_mixed"
)

var (
	trainWorkloads   = []string{wlTrainPlain, wlOffloadDMA, wlOffloadNet, wlDP2Net}
	offloadWorkloads = []string{wlOffloadDMA, wlOffloadNet}
	wireWorkloads    = []string{wlOffloadNet, wlDP2Net, wlStoreMixed}
	codecWorkloads   = []string{wlCodecStream, wlOffloadDMA, wlOffloadNet}
)

// e2eMetric is one end-to-end metric. Gated metrics are defined (and
// never zero) on every workload, which is what the driver's schema
// requires of BENCHMARK.json's end_to_end list. The others exist on some
// workloads only (or are 0 on a clean tree); the suite prints and stores
// them per workload and -compare judges them.
type e2eMetric struct {
	Name   string
	Unit   string
	Better string // "lower" | "higher"
	// Bound is the share of the baseline's median by which the metric may
	// worsen before a change counts as a regression.
	Bound float64
	// Exact marks a count that the same seed reproduces digit for digit:
	// -repeat wants it to repeat exactly and -compare lets it not worsen at
	// all. Its Bound only has to cover the driver's runs, which differ in
	// their seed.
	Exact     bool
	Gated     bool
	Workloads []string // nil = every workload
}

// timeBound is the bound of every wall-clock metric. It is what this
// machine supports, not what the issue hoped for (0.07–0.10): README.md
// records the measured spreads, and a bound must sit near three times the
// spread to tell a regression from the neighbours on a shared host.
const timeBound = 0.25

var e2eSpec = []e2eMetric{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: timeBound, Gated: true},
	{Name: "round_ms", Unit: "ms", Better: "lower", Bound: timeBound, Gated: true},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.15, Gated: true},
	// Workload-neutral forms of the issue's two exact metrics: what the
	// workload hands its data path against what the path stores and
	// returns. Both read 1 where nothing is compressed (train_plain, the
	// raw float32 gradient frames of train_dp2_net, the bytes store_mixed
	// puts and gets), so neither is ever 0.
	{Name: "compression_ratio", Unit: "x", Better: "higher", Bound: exactBound, Exact: true, Gated: true},
	{Name: "recon_fidelity", Unit: "share", Better: "higher", Bound: exactBound, Exact: true, Gated: true},
	{Name: "recon_rel_l2", Unit: "share", Better: "lower", Exact: true, Workloads: codecWorkloads},
	{Name: "samples_per_s", Unit: "1/s", Better: "higher", Bound: timeBound, Workloads: trainWorkloads},
	{Name: "encode_mb_per_s", Unit: "MB/s", Better: "higher", Bound: timeBound, Workloads: []string{wlCodecStream}},
	{Name: "decode_mb_per_s", Unit: "MB/s", Better: "higher", Bound: timeBound, Workloads: []string{wlCodecStream}},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: timeBound, Workloads: []string{wlStoreMixed}},
	{Name: "op_us_p50", Unit: "us", Better: "lower", Bound: timeBound, Workloads: []string{wlStoreMixed}},
	{Name: "failed_share", Unit: "share", Better: "lower", Exact: true},
}

// exactBound covers how far the exact metrics move from one seed to the
// next (the driver compares medians over runs that each take another
// seed, and ten seeds spread compression_ratio by 0.9–1.4%); at one seed
// they do not move at all.
const exactBound = 0.05

func (m e2eMetric) appliesTo(workload string) bool {
	return m.Workloads == nil || slices.Contains(m.Workloads, workload)
}

// layerMetric is one per-layer metric of the traced pass. It is measured
// on the workloads that enter its layer and reads 0 on the others — the
// interaction map in data form.
type layerMetric struct {
	Name      string
	Unit      string
	Better    string
	Workloads []string // nil = every workload
}

var perLayerSpec = []layerMetric{
	// data
	{"data.batch_ms", "ms", "lower", trainWorkloads},
	// nn
	{"nn.forward_ms", "ms", "lower", stepLoopWorkloads},
	{"nn.loss_ms", "ms", "lower", stepLoopWorkloads},
	{"nn.backward_ms", "ms", "lower", stepLoopWorkloads},
	{"nn.optimizer_ms", "ms", "lower", stepLoopWorkloads},
	{"nn.gemm_gflops", "GFLOP/s", "higher", trainWorkloads},
	{"nn.gemm_ta_gflops", "GFLOP/s", "higher", trainWorkloads},
	{"nn.gemm_tb_gflops", "GFLOP/s", "higher", trainWorkloads},
	{"nn.gemm_share_of_peak", "share", "higher", trainWorkloads},
	// sfpr, compress, coding
	{"sfpr.quantize_mb_per_s", "MB/s", "higher", codecWorkloads},
	{"sfpr.dequantize_mb_per_s", "MB/s", "higher", codecWorkloads},
	{"compress.quantize_blocks_mb_per_s", "MB/s", "higher", codecWorkloads},
	{"compress.reconstruct_blocks_mb_per_s", "MB/s", "higher", codecWorkloads},
	{"coding.zvc_encode_mb_per_s", "MB/s", "higher", codecWorkloads},
	{"coding.zvc_decode_mb_per_s", "MB/s", "higher", codecWorkloads},
	{"coding.zvc_nonzero_per_block", "count", "lower", codecWorkloads},
	// offload/codec
	{"codec.encode_mb_per_s.conv", "MB/s", "higher", codecWorkloads},
	{"codec.encode_mb_per_s.relu_conv", "MB/s", "higher", codecWorkloads},
	{"codec.encode_mb_per_s.relu_other", "MB/s", "higher", codecWorkloads},
	{"codec.encode_mb_per_s.pool_dropout", "MB/s", "higher", codecWorkloads},
	{"codec.decode_mb_per_s.conv", "MB/s", "higher", codecWorkloads},
	{"codec.decode_mb_per_s.relu_conv", "MB/s", "higher", codecWorkloads},
	{"codec.decode_mb_per_s.relu_other", "MB/s", "higher", codecWorkloads},
	{"codec.decode_mb_per_s.pool_dropout", "MB/s", "higher", codecWorkloads},
	{"codec.ratio.conv", "x", "higher", codecWorkloads},
	{"codec.ratio.relu_conv", "x", "higher", codecWorkloads},
	{"codec.ratio.relu_other", "x", "higher", codecWorkloads},
	{"codec.ratio.pool_dropout", "x", "higher", codecWorkloads},
	{"codec.decode_coef_mb_per_s", "MB/s", "higher", codecWorkloads},
	{"codec.grad_encode_mb_per_s", "MB/s", "higher", []string{wlDP2Net}},
	{"codec.grad_decode_mb_per_s", "MB/s", "higher", []string{wlDP2Net}},
	{"codec.encode_share_of_memcpy", "share", "higher", codecWorkloads},
	// frame
	{"frame.encode_mb_per_s", "MB/s", "higher", frameWorkloads},
	{"frame.decode_mb_per_s", "MB/s", "higher", frameWorkloads},
	{"frame.overhead_share", "share", "lower", frameWorkloads},
	{"frame.decode_share_of_crc", "share", "higher", frameWorkloads},
	// offload (engine + store)
	{"offload.offload_call_us", "us", "lower", offloadWorkloads},
	{"offload.end_forward_wait_ms", "ms", "lower", offloadWorkloads},
	{"offload.prepare_backward_ms", "ms", "lower", offloadWorkloads},
	{"offload.restore_wait_ms", "ms", "lower", offloadWorkloads},
	{"offload.end_step_ms", "ms", "lower", offloadWorkloads},
	{"offload.exposed_ms", "ms", "lower", offloadWorkloads},
	{"offload.exposed_share", "share", "lower", offloadWorkloads},
	{"offload.prefetch_hit_ratio", "share", "higher", offloadWorkloads},
	{"offload.demand_fetches", "count", "lower", offloadWorkloads},
	{"offload.max_inflight_kb", "KB", "lower", offloadWorkloads},
	{"offload.offloaded_per_step", "count", "lower", offloadWorkloads},
	{"offload.kb_offloaded_per_step", "KB", "lower", offloadWorkloads},
	{"offload.step_ms_sync", "ms", "lower", offloadWorkloads},
	{"offload.step_ms_async", "ms", "lower", offloadWorkloads},
	{"offload.overlap_gain", "x", "higher", offloadWorkloads},
	{"offload.retried", "count", "lower", offloadWorkloads},
	{"offload.recomputed", "count", "lower", offloadWorkloads},
	{"offload.degraded", "count", "lower", offloadWorkloads},
	// offload/transport
	{"transport.channel_send_ms", "ms", "lower", []string{wlOffloadDMA}},
	{"transport.channel_recv_ms", "ms", "lower", []string{wlOffloadDMA}},
	{"transport.channel_transfers_per_step", "count", "lower", []string{wlOffloadDMA}},
	{"transport.channel_busy_share", "share", "lower", []string{wlOffloadDMA}},
	{"transport.conn_write_calls_per_step", "count", "lower", wireWorkloads},
	{"transport.conn_write_kb_per_step", "KB", "lower", wireWorkloads},
	{"transport.conn_read_kb_per_step", "KB", "lower", wireWorkloads},
	{"transport.conn_write_ms", "ms", "lower", wireWorkloads},
	{"transport.put_us_p50", "us", "lower", wireWorkloads},
	{"transport.put_us_p99", "us", "lower", wireWorkloads},
	{"transport.get_us_p50", "us", "lower", wireWorkloads},
	{"transport.get_us_p99", "us", "lower", wireWorkloads},
	{"transport.delete_us_p50", "us", "lower", wireWorkloads},
	{"transport.sync_put_us_p50", "us", "lower", wireWorkloads},
	{"transport.sync_get_us_p50", "us", "lower", wireWorkloads},
	{"transport.reconnects", "count", "lower", wireWorkloads},
	{"transport.hedged", "count", "lower", wireWorkloads},
	{"transport.put_share_of_rtt", "share", "higher", wireWorkloads},
	// offload/netstore
	{"netstore.pipe_put_us_p50", "us", "lower", wireWorkloads},
	{"netstore.pipe_get_us_p50", "us", "lower", wireWorkloads},
	{"netstore.puts", "count", "lower", wireWorkloads},
	{"netstore.gets", "count", "lower", wireWorkloads},
	{"netstore.host_kb_peak", "KB", "lower", wireWorkloads},
	{"netstore.entries_end", "count", "lower", wireWorkloads},
	{"netstore.conns", "count", "lower", wireWorkloads},
	// train
	{"train.step_ms_p50", "ms", "lower", trainWorkloads},
	{"train.step_ms_p90", "ms", "lower", trainWorkloads},
	{"train.validation_ms", "ms", "lower", stepLoopWorkloads},
	{"train.product_vs_loop_ratio", "x", "lower", stepLoopWorkloads},
	{"train.dp_grad_puts_per_step", "count", "lower", []string{wlDP2Net}},
	{"train.dp_grad_gets_per_step", "count", "lower", []string{wlDP2Net}},
	{"train.dp_grad_kb_per_step", "KB", "lower", []string{wlDP2Net}},
	{"train.dp_k1_samples_per_s", "1/s", "higher", []string{wlDP2Net}},
	{"train.dp_scaling_efficiency", "share", "higher", []string{wlDP2Net}},
	{"train.dp_serial_samples_per_s", "1/s", "higher", []string{wlDP2Net}},
	{"train.dp_overlap_gain", "x", "higher", []string{wlDP2Net}},
	// gpusim: simulated time from an unvalidated model, reported beside
	// the measured overlap_gain / dp_scaling_efficiency; host_ms is real.
	{"gpusim.pred_speedup_vs_vdnn", "x", "higher", offloadWorkloads},
	{"gpusim.pred_dp2_speedup", "x", "higher", []string{wlDP2Net}},
	{"gpusim.host_ms", "ms", "lower", []string{wlOffloadDMA, wlOffloadNet, wlDP2Net}},
	// bound: machine probes, each the denominator of a *_share_of_* metric
	{"bound.memcpy_gb_per_s", "GB/s", "higher", nil},
	{"bound.gemm_peak_gflops", "GFLOP/s", "higher", nil},
	{"bound.crc32c_gb_per_s", "GB/s", "higher", nil},
	{"bound.unix_rtt_us", "us", "lower", nil},
	{"bound.sleep_overshoot_us", "us", "lower", nil},
	// proc
	{"proc.allocs_per_op", "count", "lower", nil},
	{"proc.alloc_kb_per_op", "KB", "lower", nil},
	{"proc.gc_cycles", "count", "lower", nil},
	{"proc.gc_pause_ms", "ms", "lower", nil},
	{"proc.cpu_util", "share", "lower", nil},
	{"proc.goroutines_end", "count", "lower", nil},
	{"trace_overhead_share", "share", "lower", trainWorkloads},
}

var (
	// stepLoopWorkloads have a benchmark-owned step loop in the traced
	// pass; train_dp2_net is reachable only as a whole facade call.
	stepLoopWorkloads = []string{wlTrainPlain, wlOffloadDMA, wlOffloadNet}
	frameWorkloads    = []string{wlCodecStream, wlOffloadDMA, wlOffloadNet, wlDP2Net, wlStoreMixed}
)

func (m layerMetric) appliesTo(workload string) bool {
	return m.Workloads == nil || slices.Contains(m.Workloads, workload)
}

// clockFree reports whether the metric holds no reading of the wall clock:
// a count of operations or bytes, or a ratio of such counts or of
// simulated times. Only these stand when a workload that needs a second P
// runs without one.
func (m layerMetric) clockFree() bool {
	switch m.Name {
	case "frame.overhead_share", "offload.prefetch_hit_ratio", "gpusim.pred_speedup_vs_vdnn", "gpusim.pred_dp2_speedup":
		return true
	}
	return m.Unit == "count" || m.Unit == "KB" || strings.HasPrefix(m.Name, "codec.ratio.")
}
