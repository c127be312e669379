"""Learning to dimension induction machines as a discrete design game.

A catalog of base machines and target-band variants defines episodic
search problems over a (length, turns, tooth-tip) lattice; an analytical
surrogate scores each point; a from-scratch PPO agent learns to reach
all-zero performance flags in as few steps as possible, bracketed by
random/greedy baselines and an exact shortest-path oracle.
"""
