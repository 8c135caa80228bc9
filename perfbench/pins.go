package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"strconv"
)

// pinsJSON holds the outcome hashes of the first jobs of every workload at
// the default seed. A change that alters any output byte breaks them; one
// that only changes speed must leave them alone.
//
//go:embed pins.json
var pinsJSON []byte

func loadPins(workload string) (map[int]string, error) {
	var all map[string]map[string]string
	if err := json.Unmarshal(pinsJSON, &all); err != nil {
		return nil, fmt.Errorf("pins.json: %w", err)
	}
	pins, ok := all[workload]
	if !ok || len(pins) == 0 {
		return nil, fmt.Errorf("pins.json: no pins for %s", workload)
	}
	out := make(map[int]string, len(pins))
	for k, v := range pins {
		i, err := strconv.Atoi(k)
		if err != nil {
			return nil, fmt.Errorf("pins.json: %s job %q: %w", workload, k, err)
		}
		out[i] = v
	}
	return out, nil
}
