package channel

import (
	"errors"
	"fmt"
	"sync"

	"fabriccrdt/internal/ledger"
	"fabriccrdt/internal/orderer"
)

// ErrUnknownChannel reports a channel ID the registry (or a peer) does not
// know.
var ErrUnknownChannel = errors.New("channel: unknown channel")

// ValidateIDs checks a channel ID list: it must be non-empty, every name
// must be non-empty and filesystem-safe (the LSM backend uses the ID as a
// directory name), and names must not repeat.
func ValidateIDs(ids []string) error {
	if len(ids) == 0 {
		return errors.New("channel: no channels configured")
	}
	seen := make(map[string]struct{}, len(ids))
	for _, id := range ids {
		if err := validateID(id); err != nil {
			return err
		}
		if _, dup := seen[id]; dup {
			return fmt.Errorf("channel: duplicate channel name %q", id)
		}
		seen[id] = struct{}{}
	}
	return nil
}

// validateID checks one channel name. The character set is restricted to
// what is safe as a directory name on every platform: letters, digits,
// '.', '-' and '_', not starting with '.'.
func validateID(id string) error {
	if id == "" {
		return errors.New("channel: empty channel name")
	}
	if id[0] == '.' {
		return fmt.Errorf("channel: channel name %q must not start with '.'", id)
	}
	for _, r := range id {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '-', r == '_':
		default:
			return fmt.Errorf("channel: channel name %q contains %q (allowed: letters, digits, '.', '-', '_')", id, r)
		}
	}
	return nil
}

// Registry is the network-side channel manager: the validated channel ID
// set in a stable order (the first ID is the default channel) and, once
// started, one ordering service per channel. Channels order and deliver
// independently — the registry holds no cross-channel state beyond the
// name set itself.
type Registry struct {
	ids []string

	mu       sync.Mutex
	services map[string]*orderer.Service
	stopped  bool
}

// NewRegistry returns a registry over the given channel IDs, validating
// them (non-empty, filesystem-safe, no duplicates).
func NewRegistry(ids ...string) (*Registry, error) {
	if err := ValidateIDs(ids); err != nil {
		return nil, err
	}
	r := &Registry{
		ids:      append([]string(nil), ids...),
		services: make(map[string]*orderer.Service, len(ids)),
	}
	return r, nil
}

// IDs returns the channel IDs in registration order.
func (r *Registry) IDs() []string { return append([]string(nil), r.ids...) }

// Default returns the first registered channel — what single-channel
// convenience APIs bind to.
func (r *Registry) Default() string { return r.ids[0] }

// Has reports whether the channel is registered.
func (r *Registry) Has(id string) bool {
	for _, known := range r.ids {
		if known == id {
			return true
		}
	}
	return false
}

// StartService launches the channel's ordering service, chaining blocks
// after the (number, header hash) resume point — the channel genesis for a
// fresh network, or the durable checkpoint when peers were rebuilt over an
// existing data directory. Starting an unknown or already-started channel
// is an error.
func (r *Registry) StartService(id string, cfg orderer.Config, afterNumber uint64, afterHash []byte) (*orderer.Service, error) {
	if !r.Has(id) {
		return nil, fmt.Errorf("%w: %q", ErrUnknownChannel, id)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.stopped {
		return nil, errors.New("channel: registry stopped")
	}
	if _, up := r.services[id]; up {
		return nil, fmt.Errorf("channel: ordering service for %q already started", id)
	}
	svc := orderer.NewServiceAt(cfg, afterNumber, afterHash)
	r.services[id] = svc
	return svc, nil
}

// Service returns the channel's running ordering service.
func (r *Registry) Service(id string) (*orderer.Service, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	svc, ok := r.services[id]
	if !ok {
		return nil, fmt.Errorf("%w: %q (or its ordering service is not started)", ErrUnknownChannel, id)
	}
	return svc, nil
}

// Subscribe registers a deliver channel on one channel's ordering service.
func (r *Registry) Subscribe(id string) (<-chan *ledger.Block, error) {
	svc, err := r.Service(id)
	if err != nil {
		return nil, err
	}
	return svc.Subscribe(), nil
}

// StopAll stops every started ordering service: pending transactions are
// flushed and deliver channels closed. Channels stop independently; a
// stopped registry accepts no further StartService.
func (r *Registry) StopAll() {
	r.mu.Lock()
	r.stopped = true
	services := make([]*orderer.Service, 0, len(r.services))
	//lint:sorted per-channel services stop independently; stop order is invisible
	for _, svc := range r.services {
		services = append(services, svc)
	}
	r.mu.Unlock()
	for _, svc := range services {
		svc.Stop()
	}
}
