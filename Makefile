# Tier-1 verification gate: make verify must pass before any change
# lands. It enforces formatting and vet cleanliness in addition to the
# build and test suite, runs the concurrency-sensitive packages under
# the race detector, and smoke-fuzzes every fuzz target (fuzz-smoke
# below), so style, vet, race and parser regressions fail loudly
# instead of accumulating.

GO ?= go
FUZZTIME ?= 10s

# Pinned analysis-tool versions. `make tools` and CI install exactly
# these; @latest is banned so a tool release cannot silently change
# what the gate enforces. tools/tools.go tracks the same import paths
# so `go mod tidy -tags tools` sees them as real dependencies.
STATICCHECK_VERSION ?= 2025.1.1
GOVULNCHECK_VERSION ?= v1.1.4

# The compiler release the escape gate's golden (api/escape.txt) was
# generated with. -gcflags=-m diagnostics are version-sensitive, so
# `make escape` only enforces the diff when the running toolchain's
# minor version matches; other versions skip with a notice (CI runs a
# dedicated job on the pinned version).
ESCAPE_GO_VERSION ?= go1.24

# Fuzz targets guarding the urlx normalization contract; go test only
# accepts one -fuzz pattern per invocation, so the smoke loops. The root
# package adds the snapshot-equivalence differential (classifier vs
# compiled snapshot, bit-identical, for every compiled family and every
# finalisation of the token families' ID bitmap: NB, ME and RE scores
# read straight from it, decision-tree and kNN vectors read out), the flat
# package fuzzes the v3 container parser (bad offsets, overlapping
# sections, oversize lengths must reject cleanly, never read OOB), and
# the modelfile package fuzzes ReadBytes, the reader every model file
# goes through (an error or exactly one model, never a panic).
# The serve package pins its strict request parsers to encoding/json
# (same result and error text for every body and stream line), sends
# raw bodies through both serving handlers (no panic; valid JSON or a
# 4xx), holds the result cache's indexed CLOCK to a map-based
# reference, hit for hit, and holds the response float formatter to
# encoding/json's bytes for any finite 64-bit pattern.
URLX_FUZZ := FuzzParseConsistency FuzzNormalizeInto FuzzHostAgainstNetURL
SERVE_FUZZ := FuzzDecodeClassify FuzzStreamLine FuzzClassifyHandler FuzzStreamHandler FuzzCacheClock FuzzAppendJSONFloat

# The committed public API surface: declaration lines distilled from
# `go doc -all` (sections start at CONSTANTS/...; doc prose is indented
# four spaces and dropped). api-check fails verify on undocumented
# drift; `make api` accepts an intentional change.
API_SURFACE := api/urllangid.txt
API_DISTILL := $(GO) doc -all . | awk '/^(CONSTANTS|VARIABLES|FUNCTIONS|TYPES)$$/{on=1} on && NF && substr($$0,1,4) != "    "'

.PHONY: verify build fmt vet staticcheck lint vuln tools test race fuzz-smoke bench fuzz api api-check escape escape-accept

verify: fmt vet staticcheck lint escape build api-check test race fuzz-smoke vuln

build:
	$(GO) build ./...

fmt:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt required for:"; echo "$$unformatted"; exit 1; \
	fi

vet:
	$(GO) vet ./...

# staticcheck is a should-have, not a can't-build-without: environments
# that lack the binary (and cannot install tools) skip it with a notice
# instead of failing verify. CI installs it, so drift is still caught
# before merge.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not found; skipping (run 'make tools' to install staticcheck@$(STATICCHECK_VERSION))"; \
	fi

# The project-invariant analyzer suite (hotpathalloc, pinpair,
# modelfileio, lockorder) built from this repo — no tool fetch, no
# network: `go run` compiles cmd/urllangid-lint from the
# checkout and checks every package. Each analyzer works on the syntax
# tree alone. Typed atomics are left to vet's copylocks check, and
# releases handed out as a func() to the root package's
# TestNoPinOutlivesItsCall. See DESIGN.md "Enforced invariants" for
# what each analyzer guarantees and which check catches which fault.
lint:
	$(GO) run ./cmd/urllangid-lint ./...

# The compiler-truth escape gate: build the hot packages with
# -gcflags=-m and diff the normalized hot-path escape/inline facts
# against api/escape.txt. Only enforced on the pinned compiler minor
# (diagnostics drift across releases); elsewhere it skips with a
# notice, mirroring the staticcheck/govulncheck pattern.
escape:
	@ver=$$($(GO) env GOVERSION | cut -d. -f1-2); \
	if [ "$$ver" != "$(ESCAPE_GO_VERSION)" ]; then \
		echo "escape: skipping (running $$($(GO) env GOVERSION); golden pinned to $(ESCAPE_GO_VERSION).x)"; \
	else \
		$(GO) run ./cmd/urllangid-escape; \
	fi

# Accept an intentional hot-path escape/inline change: regenerate the
# golden manifest and commit it.
escape-accept:
	$(GO) run ./cmd/urllangid-escape -w

# govulncheck needs network access for the vulnerability database, so
# like staticcheck it is a should-have: absent binary skips with a
# notice, and CI installs the pinned version so drift is caught there.
vuln:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "govulncheck not found; skipping (run 'make tools' to install govulncheck@$(GOVULNCHECK_VERSION))"; \
	fi

# Install the pinned external analysis tools. Kept out of verify so
# air-gapped environments still get the full in-repo gate.
tools:
	$(GO) install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION)
	$(GO) install golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION)

test:
	$(GO) test ./...

# The whole module under the race detector — concurrency now reaches
# beyond the original cache/pool/registry packages, so the gate no
# longer hand-picks "concurrency-sensitive" ones. Allocation-count
# tests skew under instrumentation and skip themselves via the
# norace_test.go / race_test.go raceEnabled build-tag pair.
race:
	$(GO) test -race ./...

fuzz-smoke:
	@for target in $(URLX_FUZZ); do \
		$(GO) test ./internal/urlx/ -run NONE -fuzz $$target -fuzztime $(FUZZTIME) || exit 1; \
	done
	$(GO) test . -run NONE -fuzz FuzzSnapshotEquivalence -fuzztime $(FUZZTIME)
	$(GO) test ./internal/modelfile/flat/ -run NONE -fuzz FuzzFlatSections -fuzztime $(FUZZTIME)
	$(GO) test ./internal/modelfile/ -run NONE -fuzz FuzzReadModel -fuzztime $(FUZZTIME)
	@for target in $(SERVE_FUZZ); do \
		$(GO) test ./internal/serve/ -run NONE -fuzz "^$$target\$$" -fuzztime $(FUZZTIME) || exit 1; \
	done

api:
	@mkdir -p api
	@$(API_DISTILL) > $(API_SURFACE)
	@echo "wrote $(API_SURFACE)"

api-check:
	@mkdir -p api
	@$(API_DISTILL) > $(API_SURFACE).tmp; \
	if ! cmp -s $(API_SURFACE) $(API_SURFACE).tmp; then \
		echo "public API surface drifted from $(API_SURFACE):"; \
		diff -u $(API_SURFACE) $(API_SURFACE).tmp || true; \
		rm -f $(API_SURFACE).tmp; \
		echo "run 'make api' and commit the result if the change is intentional"; \
		exit 1; \
	fi; \
	rm -f $(API_SURFACE).tmp

bench:
	$(GO) test -run NONE -bench 'Predict|Classify|Cascade|Batcher|Extract|ParseURL|Normalize' -benchmem .
	$(GO) test -run NONE -bench . -benchmem ./internal/serve

fuzz:
	$(GO) test ./internal/urlx/ -run NONE -fuzz FuzzParseConsistency -fuzztime 30s
