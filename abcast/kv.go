package abcast

import "repro/internal/rsm"

// KVStore is a replicated key-value state machine with deferred-update
// transaction certification (§6.2) that also implements Checkpointer
// (Fig. 5). Wire Apply into OnDeliver and Restore into OnRestore.
type KVStore = rsm.Store

// NewKVStore creates an empty replica state machine.
func NewKVStore() *KVStore { return rsm.NewStore() }

// Tx is a deferred-update transaction (read versions + writes).
type Tx = rsm.Tx

// EncodePut builds a broadcast payload for an unconditional write.
func EncodePut(key, value string) []byte { return rsm.EncodePut(key, value) }

// EncodeDel builds a broadcast payload for an unconditional delete.
func EncodeDel(key string) []byte { return rsm.EncodeDel(key) }

// EncodeTx builds a broadcast payload for a transaction commit request.
func EncodeTx(tx Tx) []byte { return rsm.EncodeTx(tx) }
