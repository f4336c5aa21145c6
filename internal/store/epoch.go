package store

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// Epoch is the replication term persisted beside a city's WAL. It is
// monotonic: every promotion bumps it by one and records the advertised
// URL of the node that owns the new term. Nodes stamp the epoch into the
// GTREPv1 wire headers; a node that observes a higher term than its own
// knows it has been deposed and must fence itself read-only.
type Epoch struct {
	// Epoch is the term number. Zero means "no promotion has ever
	// happened" — the pre-epoch fleet — and is never stamped on the wire.
	Epoch int64 `json:"epoch"`
	// Primary is the advertised URL of the node that bumped this term.
	Primary string `json:"primary,omitempty"`
}

// EpochPath is the canonical epoch-file location for a city key inside a
// snapshot directory (the epoch lives beside the snapshot + WAL so a
// node restart recovers its term with the rest of its durable state).
func EpochPath(dir, key string) string {
	return filepath.Join(dir, key+".epoch.json")
}

// ReadEpoch loads a city's replication epoch. A missing file is not an
// error: it returns the zero epoch so pre-epoch fleets boot unchanged.
func ReadEpoch(dir, key string) (Epoch, error) {
	raw, err := os.ReadFile(EpochPath(dir, key))
	if err != nil {
		if os.IsNotExist(err) {
			return Epoch{}, nil
		}
		return Epoch{}, fmt.Errorf("store: read epoch: %w", err)
	}
	var e Epoch
	if err := json.Unmarshal(raw, &e); err != nil {
		return Epoch{}, fmt.Errorf("store: decode epoch %s: %w", EpochPath(dir, key), err)
	}
	if e.Epoch < 0 {
		return Epoch{}, fmt.Errorf("store: decode epoch %s: negative term %d", EpochPath(dir, key), e.Epoch)
	}
	return e, nil
}

// WriteEpoch atomically persists a city's replication epoch (see
// writeFileAtomic), so a crash mid-promotion never leaves a torn or empty
// epoch file.
func WriteEpoch(dir, key string, e Epoch) error {
	return writeFileAtomic(EpochPath(dir, key), func(w io.Writer) error { return json.NewEncoder(w).Encode(e) })
}
