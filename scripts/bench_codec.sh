#!/usr/bin/env sh
# Runs the payload codec benchmarks and emits BENCH_codec.json — the
# perf trajectory record for the codec/symbol layer. Usage:
#
#   scripts/bench_codec.sh [benchtime] [output.json]
#
# benchtime defaults to 1s per benchmark; output defaults to
# BENCH_codec.json in the repository root.
#
# The JSON keeps old and new kernels side by side: the *_scalar tiers
# are the portable log/exp reference loops, *_table the previous
# byte-at-a-time full-table kernels, and the unsuffixed numbers the
# row-blocked pooled paths that replaced them. The *_tx4 rows decode at
# the cast geometries (rse k=256 and rse16 k=1024, ratio 1.5) from a
# random transmission order, so about a third of the symbols are parity.
set -eu

cd "$(dirname "$0")/.."
BENCHTIME="${1:-1s}"
OUT="${2:-BENCH_codec.json}"
RAW="$(mktemp)"
trap 'rm -f "$RAW"' EXIT

# TestKernelTier logs which dispatch tier CPU detection picked
# (avx2 / neon / unrolled / scalar); -v surfaces the log line for the
# parser so the JSON records what hardware the numbers mean.
go test -run 'TestKernelTier' -v -bench 'CodecEncode|CodecDecode|Kernel|Session' \
    -benchtime "$BENCHTIME" -count 1 \
    ./internal/rse ./internal/rse16 ./internal/codes ./internal/gf256 ./internal/gf65536 ./internal/session \
    | tee "$RAW"

awk -v out="$OUT" '
/^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name)
    sub(/^Benchmark/, "", name)
    for (i = 1; i <= NF; i++) {
        if ($(i+1) == "MB/s")      mbps[name] = $i
        if ($(i+1) == "allocs/op") allocs[name] = $i
    }
}
/^cpu:/ { sub(/^cpu: */, ""); cpu = $0 }
/kernel tier:/ { tier = $NF }
function fam(tag, enc, dec) {
    printf "    \"%s\": {\"encode_mb_per_sec\": %s, \"encode_allocs_per_op\": %s, \"decode_mb_per_sec\": %s, \"decode_allocs_per_op\": %s}", \
        tag, mbps[enc], allocs[enc], mbps[dec], allocs[dec] >> out
}
END {
    if (mbps["CodecEncodeK32"] == "" || mbps["CodecEncodeK32Scalar"] == "") {
        print "bench_codec: missing RS encode tier output" > "/dev/stderr"
        exit 1
    }
    if (mbps["CodecDecodeK256"] == "" || mbps["CodecDecodeK1024"] == "") {
        print "bench_codec: missing cast-geometry decode output" > "/dev/stderr"
        exit 1
    }
    printf "{\n" > out
    printf "  \"benchmark\": \"codec\",\n" >> out
    printf "  \"cpu\": \"%s\",\n", cpu >> out
    printf "  \"rs_k32_1k\": {\n" >> out
    printf "    \"encode_new_mb_per_sec\": %s,\n", mbps["CodecEncodeK32"] >> out
    printf "    \"encode_table_mb_per_sec\": %s,\n", mbps["CodecEncodeK32Table"] >> out
    printf "    \"encode_scalar_mb_per_sec\": %s,\n", mbps["CodecEncodeK32Scalar"] >> out
    printf "    \"encode_speedup_vs_scalar\": %.2f,\n", mbps["CodecEncodeK32"] / mbps["CodecEncodeK32Scalar"] >> out
    printf "    \"encode_speedup_vs_table\": %.2f,\n", mbps["CodecEncodeK32"] / mbps["CodecEncodeK32Table"] >> out
    printf "    \"encode_allocs_per_op\": %s,\n", allocs["CodecEncodeK32"] >> out
    printf "    \"encode_allocs_per_op_old\": %s,\n", allocs["CodecEncodeK32Table"] >> out
    printf "    \"decode_mb_per_sec\": %s,\n", mbps["CodecDecodeK32"] >> out
    printf "    \"decode_allocs_per_op\": %s\n", allocs["CodecDecodeK32"] >> out
    printf "  },\n" >> out
    printf "  \"rs_k256_tx4_1k\": {\"decode_mb_per_sec\": %s, \"decode_allocs_per_op\": %s},\n", \
        mbps["CodecDecodeK256"], allocs["CodecDecodeK256"] >> out
    printf "  \"rse16_k1024_tx4_1k\": {\"decode_mb_per_sec\": %s, \"decode_allocs_per_op\": %s},\n", \
        mbps["CodecDecodeK1024"], allocs["CodecDecodeK1024"] >> out
    printf "  \"families\": {\n" >> out
    fam("rse",            "CodecEncode/rse",            "CodecDecode/rse");            printf ",\n" >> out
    fam("rse16",          "CodecEncode/rse16",          "CodecDecode/rse16");          printf ",\n" >> out
    fam("ldgm",           "CodecEncode/ldgm",           "CodecDecode/ldgm");           printf ",\n" >> out
    fam("ldgm-staircase", "CodecEncode/ldgm-staircase", "CodecDecode/ldgm-staircase"); printf ",\n" >> out
    fam("ldgm-triangle",  "CodecEncode/ldgm-triangle",  "CodecDecode/ldgm-triangle");  printf ",\n" >> out
    fam("no-fec",         "CodecEncode/no-fec",         "CodecDecode/no-fec");         printf "\n" >> out
    printf "  },\n" >> out
    printf "  \"gf256_kernel_tier\": \"%s\",\n", tier >> out
    printf "  \"gf256_kernels_mb_per_sec\": {\n" >> out
    printf "    \"addmul\": %s, \"addmul_table\": %s, \"addmul_scalar\": %s, \"addmul_nibble\": %s, \"addmul_unrolled\": %s,\n", \
        mbps["AddMulKernel"], mbps["AddMulKernelTable"], mbps["AddMulKernelScalar"], mbps["AddMulKernelNibble"], mbps["AddMulKernelUnrolled"] >> out
    printf "    \"addmul4\": %s, \"addmul4_unrolled\": %s, \"addmul4_scalar\": %s,\n", \
        mbps["AddMul4Kernel"], mbps["AddMul4KernelUnrolled"], mbps["AddMul4KernelScalar"] >> out
    printf "    \"addmul_speedup_vs_table\": %.2f, \"addmul4_speedup_vs_table\": %.2f,\n", \
        mbps["AddMulKernel"] / mbps["AddMulKernelTable"], mbps["AddMul4Kernel"] / mbps["AddMulKernelTable"] >> out
    printf "    \"xor\": %s, \"xor_words\": %s, \"xor_scalar\": %s\n", \
        mbps["XorKernel"], mbps["XorKernelWords"], mbps["XorKernelScalar"] >> out
    printf "  },\n" >> out
    printf "  \"gf65536_kernels_mb_per_sec\": {\n" >> out
    printf "    \"addmul\": %s, \"addmul_scalar\": %s, \"addmul_logs\": %s,\n", \
        mbps["AddMulKernelGF16"], mbps["AddMulKernelGF16Scalar"], mbps["AddMulLogsKernelGF16"] >> out
    printf "    \"xor\": %s, \"xor_scalar\": %s\n", mbps["XorKernelGF16"], mbps["XorKernelGF16Scalar"] >> out
    printf "  },\n" >> out
    printf "  \"session\": {\n" >> out
    printf "    \"encode_mb_per_sec\": %s, \"encode_allocs_per_op\": %s,\n", mbps["SessionEncode"], allocs["SessionEncode"] >> out
    printf "    \"encode_raw_codec_mb_per_sec\": %s,\n", mbps["SessionEncodeRawCodec"] >> out
    printf "    \"encode_vs_raw_codec\": %.3f,\n", mbps["SessionEncode"] / mbps["SessionEncodeRawCodec"] >> out
    printf "    \"decode_mb_per_sec\": %s, \"decode_allocs_per_op\": %s,\n", mbps["SessionDecode"], allocs["SessionDecode"] >> out
    printf "    \"ingest_packet_mb_per_sec\": %s, \"ingest_packet_allocs_per_op\": %s\n", mbps["SessionIngestPacket"], allocs["SessionIngestPacket"] >> out
    printf "  }\n" >> out
    printf "}\n" >> out
}' "$RAW"

echo "wrote $OUT"
