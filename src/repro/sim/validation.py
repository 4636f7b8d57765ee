"""Runtime invariant checking for simulations.

`validate_controller` audits a (possibly mid-run) controller for the
structural invariants the organization guarantees in hardware:

* every ST entry is a permutation (no block lost or duplicated);
* every QAC value fits its 2-bit field; every STC access counter fits
  its 6-bit field;
* the recorded M1 owner matches the frame owner of the block actually
  residing in M1;
* RSM counters are mutually consistent (M1-served <= total, self swaps
  <= total swaps);
* no frame is owned by a program whose private region belongs to
  someone else.

The checks are O(touched state) plus one pass over the frame-owner list,
so tests and long experiments can call them periodically; `ValidationError` messages carry the offending group
or program for debugging.
"""

from __future__ import annotations

from repro.common.errors import ReproError
from repro.hybrid.memory import HybridMemoryController


class ValidationError(ReproError):
    """An architectural invariant was violated."""


def validate_controller(controller: HybridMemoryController) -> int:
    """Audit all invariants; returns the number of checks performed.

    Raises :class:`ValidationError` on the first violation.
    """
    checks = 0
    checks += _validate_st(controller)
    checks += _validate_stc(controller)
    checks += _validate_rsm(controller)
    checks += _validate_regions(controller)
    return checks


def _validate_st(controller: HybridMemoryController) -> int:
    st = controller.st
    group_size = st.group_size
    identity = list(range(group_size))
    checks = 0
    for group in st.touched_groups():
        entry = st.entry(group)
        if sorted(entry.loc_of_slot) != identity:
            raise ValidationError(f"group {group}: loc_of_slot not a permutation")
        if sorted(entry.slot_of_loc) != identity:
            raise ValidationError(f"group {group}: slot_of_loc not a permutation")
        for slot in range(group_size):
            if entry.slot_at(entry.location_of(slot)) != slot:
                raise ValidationError(
                    f"group {group}: forward/backward maps disagree at {slot}"
                )
        for slot, qac in enumerate(entry.qac):
            if not 0 <= qac <= 3:
                raise ValidationError(
                    f"group {group} slot {slot}: QAC {qac} out of 2-bit range"
                )
        expected_owner = controller.owner_of_slot(group, entry.m1_slot)
        if entry.m1_owner is not None and entry.m1_owner != expected_owner:
            raise ValidationError(
                f"group {group}: m1_owner {entry.m1_owner} != frame owner "
                f"{expected_owner}"
            )
        checks += 1
    return checks


def _validate_stc(controller: HybridMemoryController) -> int:
    maximum = controller.config.mdm.access_counter_max
    checks = 0
    for group, entry in controller.stc._array.items():
        if entry.group != group:
            raise ValidationError(f"STC key {group} holds entry {entry.group}")
        for slot, count in enumerate(entry.counters):
            if not 0 <= count <= maximum:
                raise ValidationError(
                    f"group {group} slot {slot}: access counter {count} "
                    f"exceeds {maximum}"
                )
        checks += 1
    return checks


def _validate_rsm(controller: HybridMemoryController) -> int:
    checks = 0
    for program, counters in enumerate(controller.rsm.counters):
        if counters.num_req_m1_p > counters.num_req_total_p:
            raise ValidationError(f"program {program}: M1_P > Total_P")
        if counters.num_req_m1_s > counters.num_req_total_s:
            raise ValidationError(f"program {program}: M1_S > Total_S")
        if counters.num_swap_self > counters.num_swap_total:
            raise ValidationError(f"program {program}: Swap_Self > Swap_Total")
        checks += 1
    return checks


def _validate_regions(controller: HybridMemoryController) -> int:
    allocator = controller.allocator
    region_map = controller.region_map
    address_map = controller.address_map
    checks = 0
    for frame, owner in enumerate(allocator.frame_owners):
        if owner is None:
            continue
        region = address_map.region_of_page(frame)
        if region_map.is_private(region) and not region_map.is_private_to(
            region, owner
        ):
            raise ValidationError(
                f"frame {frame} in private region {region} owned by "
                f"program {owner}"
            )
        checks += 1
    return checks
