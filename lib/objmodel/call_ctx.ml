type t = {
  clock : Pm_machine.Clock.t;
  costs : Pm_machine.Cost.t;
  caller_domain : int;
  origin_domain : int;
}

let make ~clock ~costs ~caller_domain =
  { clock; costs; caller_domain; origin_domain = caller_domain }

let in_domain t d = { t with caller_domain = d }

let charge t n = Pm_machine.Clock.advance t.clock n

let work t n = Pm_machine.Clock.advance t.clock (n * t.costs.Pm_machine.Cost.cycle)

let access t n =
  Pm_machine.Clock.advance t.clock (n * t.costs.Pm_machine.Cost.mem_read);
  Pm_machine.Clock.bump_n t.clock Pm_machine.Clock.Component_mem_access n

let accesses t = Pm_machine.Clock.read t.clock Pm_machine.Clock.Component_mem_access
